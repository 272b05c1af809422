# CTest script: the acceptance bar for post-hoc shard merging.  One
# experiment, narrowed by --grid, runs (a) unsharded (reference tables
# + .jsonl) and (b) as three --grid-shard slices; then
#   griffin_bench merge shard0 shard1 shard2
# must render byte-identical tables to the unsharded run and rewrite a
# byte-identical merged row document, while incomplete or duplicated
# shard sets must fail with a coverage diagnostic.  Also pins the
# nearest-name suggestions for unknown experiments and subcommands.
#
# Invoked as:
#   cmake -DGRIFFIN_BENCH=<path> -DWORK_DIR=<dir> -P bench_merge.cmake

if(NOT GRIFFIN_BENCH OR NOT WORK_DIR)
    message(FATAL_ERROR "need -DGRIFFIN_BENCH=... and -DWORK_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(grid "network=alexnet,googlenet")
set(common_args run fig6 --grid "${grid}" --sample 0.02 --rowcap 8
    --threads 2)

# (a) the unsharded reference.
execute_process(
    COMMAND "${GRIFFIN_BENCH}" ${common_args}
            --out "${WORK_DIR}/full.jsonl"
    OUTPUT_VARIABLE full_tables ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "unsharded run failed (${rc}):\n${err}")
endif()

# (b) three shard slices.
foreach(shard 0 1 2)
    execute_process(
        COMMAND "${GRIFFIN_BENCH}" ${common_args} --grid-shard ${shard}/3
                --out "${WORK_DIR}/shard${shard}.jsonl"
        OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "shard ${shard}/3 failed (${rc}):\n${err}")
    endif()
endforeach()

# Merge renders the tables the shards could not.
execute_process(
    COMMAND "${GRIFFIN_BENCH}" merge
            "${WORK_DIR}/shard0.jsonl" "${WORK_DIR}/shard1.jsonl"
            "${WORK_DIR}/shard2.jsonl"
            --grid "${grid}" --out "${WORK_DIR}/merged.jsonl"
    OUTPUT_VARIABLE merge_tables ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "merge failed (${rc}):\n${err}")
endif()
if(NOT merge_tables STREQUAL full_tables)
    message(FATAL_ERROR
            "merged tables differ from the unsharded run's:\n"
            "${merge_tables}")
endif()
file(READ "${WORK_DIR}/full.jsonl" full_doc)
file(READ "${WORK_DIR}/merged.jsonl" merged_doc)
if(NOT merged_doc STREQUAL full_doc)
    message(FATAL_ERROR
            "merged .jsonl differs from the unsharded document")
endif()

# Coverage violations must fail loudly: a missing shard...
execute_process(
    COMMAND "${GRIFFIN_BENCH}" merge
            "${WORK_DIR}/shard0.jsonl" "${WORK_DIR}/shard2.jsonl"
            --grid "${grid}"
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(rc EQUAL 0 OR NOT err MATCHES "missing, duplicated")
    message(FATAL_ERROR
            "merge accepted an incomplete shard set (${rc}):\n${err}")
endif()
# ...a duplicated shard...
execute_process(
    COMMAND "${GRIFFIN_BENCH}" merge
            "${WORK_DIR}/shard0.jsonl" "${WORK_DIR}/shard0.jsonl"
            "${WORK_DIR}/shard1.jsonl" "${WORK_DIR}/shard2.jsonl"
            --grid "${grid}"
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(rc EQUAL 0)
    message(FATAL_ERROR "merge accepted a duplicated shard")
endif()
# ...and shards merged without their --grid override.
execute_process(
    COMMAND "${GRIFFIN_BENCH}" merge
            "${WORK_DIR}/shard0.jsonl" "${WORK_DIR}/shard1.jsonl"
            "${WORK_DIR}/shard2.jsonl"
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(rc EQUAL 0)
    message(FATAL_ERROR "merge accepted shards without their --grid")
endif()

# Unknown names suggest the nearest registered spelling.
execute_process(
    COMMAND "${GRIFFIN_BENCH}" describe fig55
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(rc EQUAL 0 OR NOT err MATCHES "did you mean 'fig5'")
    message(FATAL_ERROR
            "describe fig55 did not suggest fig5 (${rc}):\n${err}")
endif()
execute_process(
    COMMAND "${GRIFFIN_BENCH}" run tabel4
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(rc EQUAL 0 OR NOT err MATCHES "did you mean 'table4'")
    message(FATAL_ERROR
            "run tabel4 did not suggest table4 (${rc}):\n${err}")
endif()
execute_process(
    COMMAND "${GRIFFIN_BENCH}" mrege
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
if(rc EQUAL 0 OR NOT err MATCHES "did you mean 'merge'")
    message(FATAL_ERROR
            "unknown subcommand did not suggest merge (${rc}):\n${err}")
endif()

message(STATUS
        "merge OK: post-hoc tables and rows identical, coverage "
        "violations rejected, suggestions in place")
