# CTest script: the acceptance bar for the named-axis grid CLI.  Run
# `griffin_bench run fig5` with a --grid override that adds a
# weight_lane_bias axis on 1 and 8 threads and assert the .jsonl
# documents (a) are byte-identical and (b) carry the axis coordinates
# of every variant, so rows are self-describing.  Also assert that
# grid text naming no axis, or malformed text on a run with no sweep,
# exits 2; that an unwritable --out, --json or --trace path fails
# before the sweep runs; that a write to a full device exits 1, --help
# included; that --help prints the usage; and that unknown names
# suggest the nearest valid spelling.
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

# Grid text is parsed once, before any plan: text naming no axis is an
# error rather than "no override", and a run whose experiments have no
# sweep still rejects malformed text.
set(diag_comma "empty grid spec")
set(diag_foo "'foo' appears before any 'axis=value' item")
foreach(case "fig5;comma;," "table1;foo;foo")
    list(GET case 0 exp)
    list(GET case 1 name)
    list(GET case 2 text)
    execute_process(
        COMMAND "${GRIFFIN_BENCH}" run ${exp} --sample 0.01 --rowcap 4
                --grid "${text}"
        OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
    if(NOT rc EQUAL 2 OR NOT err MATCHES "${diag_${name}}"
       OR NOT out STREQUAL "")
        message(FATAL_ERROR
                "run ${exp} --grid \"${text}\" must exit 2 with "
                "'${diag_${name}}' and no stdout; got ${rc}:\n${err}\n"
                "stdout:\n${out}")
    endif()
endforeach()

# A write that fails after the sweep (the device is full) exits 1, the
# run-failure status, even when the whole document fits in the stream
# buffer and only the final flush reports the error.
if(EXISTS "/dev/full")
    set(diag_out "write to result sink path '/dev/full' failed")
    set(diag_json "write to --json path '/dev/full' failed")
    set(diag_trace "write to --trace path '/dev/full' failed")
    foreach(flag out json trace)
        execute_process(
            COMMAND "${GRIFFIN_BENCH}" run fig6 --sample 0.01 --rowcap 1
                    --grid network=alexnet,arch=Griffin
                    --${flag} /dev/full
            OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
        if(NOT rc EQUAL 1 OR NOT err MATCHES "${diag_${flag}}")
            message(FATAL_ERROR
                    "--${flag} /dev/full must exit 1 with "
                    "'${diag_${flag}}'; got ${rc}:\n${err}")
        endif()
    endforeach()
    # So does a lost stdout write: every subcommand, and --help, flushes
    # and checks stdout before it reports success, with one error line.
    foreach(args "list" "networks" "describe;fig5" "run;table1" "--help"
                 "run;table1;--help")
        execute_process(
            COMMAND "${GRIFFIN_BENCH}" ${args}
            OUTPUT_FILE /dev/full ERROR_VARIABLE err RESULT_VARIABLE rc)
        string(REGEX MATCHALL "error:" errors "${err}")
        list(LENGTH errors n_errors)
        if(NOT rc EQUAL 1 OR NOT n_errors EQUAL 1
           OR NOT err MATCHES "write to stdout failed")
            string(REPLACE ";" " " shown "${args}")
            message(FATAL_ERROR
                    "'${shown}' with stdout on /dev/full must exit 1 "
                    "with one 'write to stdout failed' error; got "
                    "${rc}:\n${err}")
        endif()
    endforeach()
else()
    message(STATUS "no /dev/full: full-device write checks skipped")
endif()

# --help prints the usage to stdout and exits 0.
foreach(args "--help" "run;table1;--help")
    execute_process(
        COMMAND "${GRIFFIN_BENCH}" ${args}
        OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0 OR NOT out MATCHES "\n\nflags:\n  --")
        string(REPLACE ";" " " shown "${args}")
        message(FATAL_ERROR
                "'${shown}' must exit 0 and print the usage; got "
                "${rc}:\n${out}${err}")
    endif()
endforeach()

# Unknown experiment, network and subcommand names exit 2 and suggest
# the nearest registered spelling.
foreach(case "describe;fig55;fig5" "run;tabel4;table4" "descibe;fig5;describe")
    list(GET case 0 command)
    list(GET case 1 name)
    list(GET case 2 want)
    execute_process(
        COMMAND "${GRIFFIN_BENCH}" ${command} ${name}
        OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
    if(NOT rc EQUAL 2 OR NOT err MATCHES "did you mean '${want}'")
        message(FATAL_ERROR
                "'${command} ${name}' must exit 2 suggesting '${want}'; "
                "got ${rc}:\n${err}")
    endif()
endforeach()

message(STATUS "grid CLI OK: coordinates present, thread-count "
               "invariant, empty and malformed grid text rejected, "
               "unwritable outputs fail before the sweep, failed "
               "writes exit 1, --help prints the usage, unknown names "
               "get suggestions")
