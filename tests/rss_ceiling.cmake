# CTest script: bounded memory, the work counts and the baseline
# oracle.  Runs every registered experiment at the baseline (smoke)
# fidelity with --stats and --out, then
#
#   1. fails if the peak RSS the last metrics line reports
#      (process.peak_rss_mb, a process-wide high-water mark) exceeds
#      CEILING_MB,
#   2. fails unless that line reports exactly SWEEP_JOBS planned jobs
#      (sweep.jobs), POOL_TASKS pool tasks (pool.executed_jobs, one
#      per distinct workset), QUEUE_REQUESTS tile-queue requests
#      (memo.queue_requests), QUEUE_BUILDS of them that built
#      queues (memo.queue_builds; the rest were shared within a
#      workset), GEN_A_SIDES A sides generated (gen.a_sides; a side no
#      consumer reads is never generated), GEN_B_TILES column tiles of
#      B drawn and kept for a workset's vector cores (gen.b_tiles) and
#      GEN_ELEMENTS elements generated in all (gen.elements: A, the
#      tiles, and the slabs of B that SparTen streams and drops), and
#      unless `run fig6`, whose Sparse.A engines read no weights,
#      reports gen.b_tiles 0, `run fig5`, whose Sparse.B engines read
#      no activations, reports gen.a_sides 0, and `run fig8`, whose
#      vector cores draw their own tiles while SparTen keeps none,
#      reports gen.b_tiles 3018.  The counts
#      depend on the registry, the planner and the sampler only, never
#      on the machine or the thread count, so a change that plans more
#      host work, stops sharing queues or generates what nobody reads
#      fails here on every box; changing them is a declared behaviour
#      change, like regenerating a baseline, and
#   3. byte-compares the result rows with bench/baselines/*.jsonl,
#      concatenated in byte-sorted bare-name order (the registry's
#      emission order, and how CI's bench-smoke job assembles them),
#      printing the first differing line on failure.
#
# Invoked as:
#   cmake -DGRIFFIN_BENCH=<path> -DCEILING_MB=<MiB> -DSWEEP_JOBS=<n>
#         -DPOOL_TASKS=<n> -DQUEUE_REQUESTS=<n> -DQUEUE_BUILDS=<n>
#         -DGEN_A_SIDES=<n> -DGEN_B_TILES=<n> -DGEN_ELEMENTS=<n>
#         -DWORK_DIR=<dir> -DBASELINES_DIR=<dir>
#         -P rss_ceiling.cmake

if(NOT GRIFFIN_BENCH OR NOT CEILING_MB OR NOT SWEEP_JOBS OR NOT POOL_TASKS
   OR NOT QUEUE_REQUESTS OR NOT QUEUE_BUILDS OR NOT GEN_A_SIDES
   OR NOT GEN_B_TILES OR NOT GEN_ELEMENTS OR NOT WORK_DIR
   OR NOT BASELINES_DIR)
    message(FATAL_ERROR "need -DGRIFFIN_BENCH=... -DCEILING_MB=... "
                        "-DSWEEP_JOBS=... -DPOOL_TASKS=... "
                        "-DQUEUE_REQUESTS=... -DQUEUE_BUILDS=... "
                        "-DGEN_A_SIDES=... -DGEN_B_TILES=... "
                        "-DGEN_ELEMENTS=... "
                        "-DWORK_DIR=... and -DBASELINES_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(actual "${WORK_DIR}/results.jsonl")
set(expected "${WORK_DIR}/baselines.jsonl")

execute_process(
    COMMAND "${GRIFFIN_BENCH}" run --all --sample 0.01 --rowcap 4
            --threads 4 --stats --out "${actual}"
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "griffin_bench run --all failed (${rc}):\n${err}")
endif()

string(REGEX MATCHALL "\"process\\.peak_rss_mb\": [0-9.eE+]+" peaks
       "${out}")
if(NOT peaks)
    message(FATAL_ERROR "no process.peak_rss_mb in the --stats lines")
endif()
list(GET peaks -1 last)
string(REGEX REPLACE ".*: " "" peak_mb "${last}")
if(peak_mb GREATER CEILING_MB)
    message(FATAL_ERROR
            "run --all peaked at ${peak_mb} MiB RSS, above the "
            "${CEILING_MB} MiB ceiling")
endif()
message(STATUS "rss ceiling OK: peak ${peak_mb} MiB <= ${CEILING_MB} MiB")

# -- work counts ------------------------------------------------------

# check_pins(<run> <stdout> name;value...): every named metric of the
# run's last --stats line equals its pinned integer.
function(check_pins run out)
    string(REGEX MATCHALL "{\"metrics\": [^\n]*" lines "${out}")
    if(NOT lines)
        message(FATAL_ERROR "${run} printed no --stats line")
    endif()
    list(GET lines -1 metrics)
    foreach(pin ${ARGN})
        string(REPLACE "=" ";" pin "${pin}")
        list(GET pin 0 name)
        list(GET pin 1 want)
        string(REPLACE "." "\\." pattern "${name}")
        if(NOT metrics MATCHES "\"${pattern}\": ([0-9]+)[,}]")
            message(FATAL_ERROR "no integer ${name} in the --stats "
                                "line of ${run}:\n${metrics}")
        endif()
        if(NOT CMAKE_MATCH_1 EQUAL want)
            message(FATAL_ERROR
                    "${run} reported ${name} = ${CMAKE_MATCH_1}, pinned "
                    "at ${want}: the plan does different work (update "
                    "the pin only for an intended change)")
        endif()
    endforeach()
endfunction()

check_pins("run --all" "${out}" "sweep.jobs=${SWEEP_JOBS}"
           "pool.executed_jobs=${POOL_TASKS}"
           "memo.queue_requests=${QUEUE_REQUESTS}"
           "memo.queue_builds=${QUEUE_BUILDS}"
           "gen.a_sides=${GEN_A_SIDES}" "gen.b_tiles=${GEN_B_TILES}"
           "gen.elements=${GEN_ELEMENTS}")

foreach(run "fig6;gen.b_tiles=0" "fig5;gen.a_sides=0" "fig8;gen.b_tiles=3018")
    list(GET run 0 exp)
    list(GET run 1 pin)
    execute_process(
        COMMAND "${GRIFFIN_BENCH}" run ${exp} --sample 0.01 --rowcap 4
                --threads 4 --stats
        OUTPUT_VARIABLE one ERROR_VARIABLE err RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "griffin_bench run ${exp} failed (${rc}):\n${err}")
    endif()
    check_pins("run ${exp}" "${one}" "${pin}")
endforeach()
message(STATUS "work counts OK: sweep.jobs ${SWEEP_JOBS}, "
               "pool.executed_jobs ${POOL_TASKS}, memo.queue_requests "
               "${QUEUE_REQUESTS}, memo.queue_builds ${QUEUE_BUILDS}, "
               "gen.a_sides ${GEN_A_SIDES}, gen.b_tiles ${GEN_B_TILES}, "
               "gen.elements ${GEN_ELEMENTS}; run fig6 drew no tile of B, "
               "run fig5 no A, run fig8 only its vector cores' tiles")

# -- baseline oracle --------------------------------------------------

file(GLOB names RELATIVE "${BASELINES_DIR}" "${BASELINES_DIR}/*.jsonl")
set(bare)
foreach(name ${names})
    string(REGEX REPLACE "\\.jsonl$" "" name "${name}")
    list(APPEND bare "${name}")
endforeach()
list(SORT bare)
file(WRITE "${expected}" "")
foreach(name ${bare})
    file(READ "${BASELINES_DIR}/${name}.jsonl" rows)
    file(APPEND "${expected}" "${rows}")
endforeach()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${expected}" "${actual}"
    RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
    # Binary-search the common prefix, then print the line around its
    # end from both documents.
    file(READ "${expected}" want)
    file(READ "${actual}" got)
    string(LENGTH "${want}" want_len)
    string(LENGTH "${got}" got_len)
    set(lo 0)
    set(hi ${want_len})
    if(got_len LESS want_len)
        set(hi ${got_len})
    endif()
    while(lo LESS hi)
        math(EXPR mid "(${lo} + ${hi} + 1) / 2")
        string(SUBSTRING "${want}" 0 ${mid} want_head)
        string(SUBSTRING "${got}" 0 ${mid} got_head)
        if(want_head STREQUAL got_head)
            set(lo ${mid})
        else()
            math(EXPR hi "${mid} - 1")
        endif()
    endwhile()
    string(SUBSTRING "${want}" 0 ${lo} prefix)
    string(REGEX MATCHALL "\n" newlines "${prefix}")
    list(LENGTH newlines line)
    math(EXPR line "${line} + 1")
    string(FIND "${prefix}" "\n" start REVERSE)
    math(EXPR start "${start} + 1")
    foreach(doc want got)
        string(SUBSTRING "${${doc}}" ${start} -1 rest)
        string(FIND "${rest}" "\n" stop)
        string(SUBSTRING "${rest}" 0 ${stop} ${doc}_line)
    endforeach()
    message(FATAL_ERROR
            "run --all rows differ from ${BASELINES_DIR}/*.jsonl "
            "(regenerate them only for an intended behaviour change; see "
            "bench/baselines/README.md).  First difference, line ${line}:\n"
            "baseline: ${want_line}\n"
            "actual:   ${got_line}")
endif()
message(STATUS "baseline oracle OK: rows match ${BASELINES_DIR}")
