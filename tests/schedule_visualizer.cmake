# CTest script: the schedule_visualizer example, byte for byte.
#
# Three invocations — the defaults (a column borrow), --shuffle=true,
# and --db1=1 --db2=1 --db3=1 --sparsity=0.4 (a lane borrow) — must
# print exactly tests/expected/schedule_visualizer_<case>.txt.  Every
# stream cell and '*' mark it prints comes from BSchedule::flatK() and
# homeCol(), which are computed from the packer's take words and
# steals, so this pins them on an example no other test runs.
#
# Invoked as:
#   cmake -DVISUALIZER=<path> -DEXPECTED_DIR=<dir> -DWORK_DIR=<dir>
#         -P schedule_visualizer.cmake

if(NOT VISUALIZER OR NOT EXPECTED_DIR OR NOT WORK_DIR)
    message(FATAL_ERROR
        "need -DVISUALIZER=..., -DEXPECTED_DIR=... and -DWORK_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(args_default "")
set(args_shuffle --shuffle=true)
set(args_borrow_all --db1=1 --db2=1 --db3=1 --sparsity=0.4)

foreach(case default shuffle borrow_all)
    set(got "${WORK_DIR}/${case}.txt")
    set(want "${EXPECTED_DIR}/schedule_visualizer_${case}.txt")
    execute_process(
        COMMAND "${VISUALIZER}" ${args_${case}}
        OUTPUT_FILE "${got}" ERROR_VARIABLE err RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "schedule_visualizer ${args_${case}} failed (${rc}):\n${err}")
    endif()
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files "${got}" "${want}"
        RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
        message(FATAL_ERROR
            "schedule_visualizer ${args_${case}}: stdout (${got}) "
            "differs from ${want}")
    endif()
endforeach()

message(STATUS "schedule_visualizer: all three cases match byte for byte")
