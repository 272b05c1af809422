# CTest script: SIMD dispatch equivalence, end to end.
#
# The same fig5, fig6, fig7 and fig8 slices run twice — once under
# whatever backend the CPU dispatches (AVX2 on x86, with the AVX-512
# table where the CPU has AVX-512 F/BW/VL/DQ; scalar elsewhere)
# and once with GRIFFIN_FORCE_SCALAR=1 pinning the portable reference
# — and the result-row documents must be byte-identical.  This is the
# whole-run closure of the per-kernel equivalence tests in
# tests/test_simd.cc: the SIMD layer is a pure speedup, never a
# behaviour change.  A workset generates only what its consumers read,
# so fig5 (Sparse.B points) generates only weights, and only their
# sampled 16-column tiles, and fig6 (Sparse.A points) only activations,
# whose generator calls no kernel; the occupancy kernels run on both.
# Every B drawn (fig5's and fig7's tiles, fig8's tiles and its SparTen
# consumer's whole B) is its nonzero bits alone, 64 rows by up to 64
# columns per dispatched keepBlock call, each block turned into column
# masks through nonzeroMasks.  fig7 (Sparse.AB points) packs B streams
# at all 20 of its preprocessed design points, each packing cycle's raw
# extents through the dispatched takeExtents kernel, and runs the dual
# engine's live masks through liveMasks (at about a second per run at
# this fidelity).  That the knob really reroutes dispatch,
# rather than just being read, and that an AVX-512 CPU really gets the
# AVX-512 table, is test_simd's SimdDispatchDeathTest.
#
# Invoked as:
#   cmake -DGRIFFIN_BENCH=<path> -DWORK_DIR=<dir> -P simd_dispatch.cmake

if(NOT GRIFFIN_BENCH OR NOT WORK_DIR)
    message(FATAL_ERROR "need -DGRIFFIN_BENCH=... and -DWORK_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(fidelity --sample 0.01 --rowcap 4 --threads 2)

foreach(exp fig5 fig6 fig7 fig8)
    # -- auto dispatch ------------------------------------------------

    execute_process(
        COMMAND "${GRIFFIN_BENCH}" run ${exp} ${fidelity}
                --out "${WORK_DIR}/${exp}_auto.jsonl"
        OUTPUT_VARIABLE out1 ERROR_VARIABLE err1 RESULT_VARIABLE rc1)
    if(NOT rc1 EQUAL 0)
        message(FATAL_ERROR
            "auto-dispatch ${exp} run failed (${rc1}):\n${err1}")
    endif()

    # -- forced scalar ------------------------------------------------

    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env GRIFFIN_FORCE_SCALAR=1
                "${GRIFFIN_BENCH}" run ${exp} ${fidelity}
                --out "${WORK_DIR}/${exp}_scalar.jsonl"
        OUTPUT_VARIABLE out2 ERROR_VARIABLE err2 RESULT_VARIABLE rc2)
    if(NOT rc2 EQUAL 0)
        message(FATAL_ERROR
            "forced-scalar ${exp} run failed (${rc2}):\n${err2}")
    endif()

    file(READ "${WORK_DIR}/${exp}_auto.jsonl" rows_auto)
    file(READ "${WORK_DIR}/${exp}_scalar.jsonl" rows_scalar)
    string(LENGTH "${rows_auto}" auto_len)
    if(auto_len EQUAL 0)
        message(FATAL_ERROR "auto-dispatch ${exp} row document is empty")
    endif()
    if(NOT rows_auto STREQUAL rows_scalar)
        message(FATAL_ERROR
            "SIMD dispatch changed result bytes: auto vs "
            "GRIFFIN_FORCE_SCALAR=1 differ on ${exp}")
    endif()
endforeach()

message(STATUS "simd_dispatch: auto and forced-scalar fig5, fig6, fig7 and "
               "fig8 rows are byte-identical")
