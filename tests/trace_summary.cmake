# CTest script: the trace summary over a real trace.
#
# Traces `run fig6 fig8 --sample 0.01 --rowcap 4 --threads 2`, runs
# tools/trace_summary.py over the trace, and fails unless
#
#   1. the tool exits 0 and its check line reports the self times
#      summing to exactly the time the top-level spans cover (which
#      holds when every span nests in its parent), and
#   2. all six suite networks appear in its per-network view, the
#      `layer` spans summed by their args.
#
# Invoked as:
#   cmake -DGRIFFIN_BENCH=<path> -DPYTHON=<python3> -DSUMMARY=<script>
#         -DWORK_DIR=<dir> -P trace_summary.cmake

if(NOT GRIFFIN_BENCH OR NOT PYTHON OR NOT SUMMARY OR NOT WORK_DIR)
    message(FATAL_ERROR "need -DGRIFFIN_BENCH=... -DPYTHON=... "
                        "-DSUMMARY=... and -DWORK_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(trace "${WORK_DIR}/trace.json")

execute_process(
    COMMAND "${GRIFFIN_BENCH}" run fig6 fig8 --sample 0.01 --rowcap 4
            --threads 2 --trace "${trace}"
    OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "traced run failed (${rc}):\n${err}")
endif()

execute_process(
    COMMAND "${PYTHON}" "${SUMMARY}" "${trace}"
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
file(WRITE "${WORK_DIR}/summary.txt" "${out}")
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "trace_summary.py failed (${rc}):\n${err}${out}")
endif()

if(NOT out MATCHES "check: self times sum to ([0-9.]+) thread-s, top-level spans cover ([0-9.]+) thread-s")
    message(FATAL_ERROR "no check line in the summary:\n${out}")
endif()
if(NOT CMAKE_MATCH_1 STREQUAL CMAKE_MATCH_2)
    message(FATAL_ERROR "self times sum to ${CMAKE_MATCH_1} thread-s, "
                        "top-level spans cover ${CMAKE_MATCH_2}")
endif()
set(total "${CMAKE_MATCH_1}")

string(FIND "${out}" "per network (layer spans)\n" at)
if(at EQUAL -1)
    message(FATAL_ERROR "no per-network view in the summary:\n${out}")
endif()
string(SUBSTRING "${out}" ${at} -1 rest)
string(FIND "${rest}" "\n\n" end)
string(SUBSTRING "${rest}" 0 ${end} networks)
foreach(net AlexNet BERT GoogLeNet InceptionV3 MobileNetV2 ResNet50)
    if(NOT networks MATCHES "\n${net} +[0-9]+ +[0-9.]+")
        message(FATAL_ERROR "no ${net} in the per-network view:\n"
                            "${networks}")
    endif()
endforeach()

message(STATUS "trace summary OK: ${total} thread-s, six networks")
