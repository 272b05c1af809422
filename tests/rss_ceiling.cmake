# CTest script: bounded memory.  Runs every registered experiment at
# the baseline (smoke) fidelity with --stats and fails if the peak RSS
# the last metrics line reports (process.peak_rss_mb, a process-wide
# high-water mark) exceeds CEILING_MB.
#
# Invoked as:
#   cmake -DGRIFFIN_BENCH=<path> -DCEILING_MB=<MiB> -P rss_ceiling.cmake

if(NOT GRIFFIN_BENCH OR NOT CEILING_MB)
    message(FATAL_ERROR "need -DGRIFFIN_BENCH=... and -DCEILING_MB=...")
endif()

execute_process(
    COMMAND "${GRIFFIN_BENCH}" run --all --sample 0.01 --rowcap 4
            --threads 4 --stats
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
