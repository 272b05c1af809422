# CTest script: end-to-end telemetry smoke.
#
#  (a) `run fig5 fig6 fig7 --trace` emits a Chrome-trace JSON
#      covering every vector-core pipeline stage (fig5 exercises gen_b,
#      tile_queues, b_schedule, tile_sim and reduce, fig6 adds gen_a
#      and a_schedule, fig7 dual_schedule) while the --out row document
#      stays byte-identical to an untraced run at a different thread
#      count — telemetry must be observation only.  A schedule-aware
#      run (ablation_memory_peak) additionally emits the nested
#      'schedule' span.
#  (b) `run --timings` grows elapsed_ms fields; the default does not.
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
            --out "${WORK_DIR}/traced.jsonl"
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

# -- (b) --timings opt-in ---------------------------------------------

if(rows_plain MATCHES "elapsed_ms")
    message(FATAL_ERROR "default run emitted elapsed_ms — --timings "
                        "must be opt-in")
endif()

execute_process(
    COMMAND "${GRIFFIN_BENCH}" run fig6 ${fidelity} --threads 2
            --timings --out "${WORK_DIR}/timed.jsonl"
    OUTPUT_VARIABLE out3 ERROR_VARIABLE err3 RESULT_VARIABLE rc3)
if(NOT rc3 EQUAL 0)
    message(FATAL_ERROR "--timings run failed (${rc3}):\n${err3}")
endif()
file(READ "${WORK_DIR}/timed.jsonl" rows_timed)
if(NOT rows_timed MATCHES "\"elapsed_ms\": ")
    message(FATAL_ERROR "--timings run emitted no elapsed_ms fields")
endif()

message(STATUS "telemetry smoke OK: identical rows, nine-stage trace, "
               "opt-in timings")
