# `imac_run run --timing` on the debug demo must print exactly the checked-in
# golden: cycles, IPC, vector/memory counters and dispatch stalls.
#
# Usage: cmake -DIMAC_RUN=<imac_run> -DPROGRAM=<file.s> -DGOLDEN=<file.txt>
#              -P run_timing_golden.cmake
execute_process(COMMAND ${IMAC_RUN} run --timing ${PROGRAM}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "run --timing exited ${rc}:\n${err}")
endif()
file(READ ${GOLDEN} want)
if(NOT out STREQUAL want)
  message(FATAL_ERROR "run --timing output differs from ${GOLDEN}:\n--- got\n${out}--- want\n${want}")
endif()
