# CTest script: POPCNT is part of the x86-64 build baseline.
#
# simd::popcount64 is inlined into the window scheduler, both dual
# engines, the steal pass, the slot queues and SparTen.  Without
# -mpopcnt each of those calls goes to libgcc's __popcountdi2 through
# the PLT, so on x86-64 no object of the library may reference it.
# Other targets report the test skipped.
#
# Invoked as:
#   cmake -DNM=<nm> -DLIBRARY=<libgriffin.a> -DX86_64=<ON|OFF>
#         -P popcount_native.cmake

if(NOT X86_64)
    message(STATUS "popcount_native: skipped (not an x86-64 build)")
    return()
endif()
if(NOT NM OR NOT LIBRARY)
    message(FATAL_ERROR "need -DNM=... and -DLIBRARY=...")
endif()

execute_process(
    COMMAND "${NM}" "${LIBRARY}"
    OUTPUT_VARIABLE symbols ERROR_VARIABLE err RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${NM} ${LIBRARY} failed (${rc}):\n${err}")
endif()

# nm lists an archive member as "<object>:" followed by its symbols.
string(REPLACE "\n" ";" lines "${symbols}")
set(object "")
set(callers "")
foreach(line IN LISTS lines)
    if(line MATCHES "^(.+):$")
        set(object "${CMAKE_MATCH_1}")
    elseif(line MATCHES "U __popcountdi2$")
        list(APPEND callers "${object}")
    endif()
endforeach()
if(callers)
    list(JOIN callers ", " callers)
    message(FATAL_ERROR
        "popcount_native: ${callers} call libgcc's __popcountdi2; the "
        "x86-64 build must compile simd::popcount64 to POPCNT (-mpopcnt)")
endif()
message(STATUS "popcount_native: no object calls __popcountdi2")
