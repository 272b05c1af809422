# CTest script: the acceptance bar for the named-axis grid CLI.  Run
# `griffin_bench run fig5` with a --grid override that adds a
# weight_lane_bias axis on 1 and 8 threads and assert the .jsonl
# documents (a) are byte-identical and (b) carry the axis coordinates
# of every variant, so rows are self-describing.  Also assert that an
# unwritable --out, --json or --trace path fails before the sweep runs.
#
# Invoked as:
#   cmake -DGRIFFIN_BENCH=<path> -DWORK_DIR=<dir> -P grid_cli.cmake

if(NOT GRIFFIN_BENCH OR NOT WORK_DIR)
    message(FATAL_ERROR "need -DGRIFFIN_BENCH=... and -DWORK_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(common_args
    run fig5
    --grid "arch=Sparse.B*,network=alexnet,weight_lane_bias=0:1:0.5"
    --sample 0.02 --rowcap 32)

foreach(threads 1 8)
    execute_process(
        COMMAND "${GRIFFIN_BENCH}" ${common_args} --threads ${threads}
                --out "${WORK_DIR}/grid_t${threads}.jsonl"
        OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "griffin_bench run --grid failed on ${threads} threads "
                "(${rc}):\n${err}")
    endif()
endforeach()

file(READ "${WORK_DIR}/grid_t1.jsonl" doc1)
file(READ "${WORK_DIR}/grid_t8.jsonl" doc8)
if(NOT doc1 STREQUAL doc8)
    message(FATAL_ERROR
            "--grid sweep .jsonl differs between --threads 1 and 8")
endif()

foreach(value 0 0.5 1)
    if(NOT doc1 MATCHES "\"coords\": {\"weight_lane_bias\": \"${value}\"}")
        message(FATAL_ERROR
                "rows lack the weight_lane_bias=${value} axis "
                "coordinate:\n${doc1}")
    endif()
endforeach()

# An unwritable output path exits 2 with the writer's diagnostic before
# any sweep: stdout stays empty because no table was rendered.
set(diag_out "cannot open result sink path")
set(diag_json "cannot open --json path")
set(diag_trace "cannot open --trace path")
foreach(flag out json trace)
    execute_process(
        COMMAND "${GRIFFIN_BENCH}" run fig6 --sample 0.01 --rowcap 4
                --${flag} "${WORK_DIR}/missing/x.jsonl"
        OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
    if(NOT rc EQUAL 2 OR NOT err MATCHES "${diag_${flag}}"
       OR NOT out STREQUAL "")
        message(FATAL_ERROR
                "--${flag} to a missing directory must exit 2 with "
                "'${diag_${flag}}' and no stdout; got ${rc}:\n${err}\n"
                "stdout:\n${out}")
    endif()
endforeach()

message(STATUS "grid CLI OK: coordinates present, thread-count "
               "invariant, unwritable outputs fail before the sweep")
