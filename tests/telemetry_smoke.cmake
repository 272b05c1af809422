# CTest script: end-to-end telemetry smoke.
#
#  (a) `run fig5 fig6 fig7 --trace` emits a Chrome-trace JSON
#      covering every vector-core pipeline stage (fig5 exercises gen_b,
#      tile_queues, b_schedule, tile_sim and reduce, fig6 adds gen_a
#      and a_schedule, fig7 dual_schedule) and one `layer` span per
#      pool task (the --stats line's pool.executed_jobs), whose args
#      name the network, the layer index and the layer name, for each
#      of the six suite networks, while the --out row document stays
#      byte-identical to an untraced run at a different thread count —
#      telemetry must be observation only.  A schedule-aware run
#      (ablation_memory_peak) additionally emits the nested 'schedule'
#      span.
#
# Invoked as:
#   cmake -DGRIFFIN_BENCH=<path> -DWORK_DIR=<dir> -P telemetry_smoke.cmake

if(NOT GRIFFIN_BENCH OR NOT WORK_DIR)
    message(FATAL_ERROR "need -DGRIFFIN_BENCH=... and -DWORK_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(fidelity --sample 0.01 --rowcap 4)

# -- (a) traced vs untraced rows --------------------------------------

execute_process(
    COMMAND "${GRIFFIN_BENCH}" run fig5 fig6 fig7 ${fidelity}
            --threads 2 --out "${WORK_DIR}/plain.jsonl"
    OUTPUT_VARIABLE out1 ERROR_VARIABLE err1 RESULT_VARIABLE rc1)
if(NOT rc1 EQUAL 0)
    message(FATAL_ERROR "untraced run failed (${rc1}):\n${err1}")
endif()

execute_process(
    COMMAND "${GRIFFIN_BENCH}" run fig5 fig6 fig7 ${fidelity}
            --threads 4 --trace "${WORK_DIR}/trace.json"
            --out "${WORK_DIR}/traced.jsonl" --stats
    OUTPUT_VARIABLE out2 ERROR_VARIABLE err2 RESULT_VARIABLE rc2)
if(NOT rc2 EQUAL 0)
    message(FATAL_ERROR "traced run failed (${rc2}):\n${err2}")
endif()

file(READ "${WORK_DIR}/plain.jsonl" rows_plain)
file(READ "${WORK_DIR}/traced.jsonl" rows_traced)
if(NOT rows_plain STREQUAL rows_traced)
    message(FATAL_ERROR "--trace changed the result rows")
endif()
string(LENGTH "${rows_plain}" rows_len)
if(rows_len EQUAL 0)
    message(FATAL_ERROR "result row document is empty")
endif()

file(READ "${WORK_DIR}/trace.json" trace)
if(NOT trace MATCHES "\"traceEvents\"")
    message(FATAL_ERROR "trace file is not a Chrome trace document")
endif()
foreach(stage gen_a gen_b tile_queues b_schedule a_schedule dual_schedule
              tile_sim reduce)
    if(NOT trace MATCHES "\"${stage}\"")
        message(FATAL_ERROR "trace has no '${stage}' spans")
    endif()
endforeach()
foreach(net AlexNet BERT GoogLeNet InceptionV3 MobileNetV2 ResNet50)
    if(NOT trace MATCHES "\"name\": \"layer\"[^\n]*\"args\": {\"network\": \"${net}\", \"index\": [0-9]+, \"layer\": \"[^\"]+\"}}")
        message(FATAL_ERROR "trace has no tagged 'layer' span of ${net}")
    endif()
endforeach()
string(REGEX MATCHALL "\"name\": \"layer\"" layer_events "${trace}")
list(LENGTH layer_events layer_count)
if(NOT out2 MATCHES "\"pool\\.executed_jobs\": ([0-9]+)")
    message(FATAL_ERROR "traced run printed no pool.executed_jobs")
endif()
if(NOT layer_count EQUAL CMAKE_MATCH_1)
    message(FATAL_ERROR "trace has ${layer_count} 'layer' spans for "
                        "${CMAKE_MATCH_1} pool tasks")
endif()

# -- (a2) schedule-aware runs add the nested schedule span ------------

execute_process(
    COMMAND "${GRIFFIN_BENCH}" run ablation_memory_peak ${fidelity}
            --threads 2 --trace "${WORK_DIR}/sched_trace.json"
    OUTPUT_VARIABLE out_s ERROR_VARIABLE err_s RESULT_VARIABLE rc_s)
if(NOT rc_s EQUAL 0)
    message(FATAL_ERROR "traced ablation_memory_peak run failed "
                        "(${rc_s}):\n${err_s}")
endif()
file(READ "${WORK_DIR}/sched_trace.json" sched_trace)
if(NOT sched_trace MATCHES "\"schedule\"")
    message(FATAL_ERROR
            "schedule-aware trace has no 'schedule' spans")
endif()

message(STATUS "telemetry smoke OK: identical rows, nine-stage trace, "
               "${layer_count} tagged layer spans")
