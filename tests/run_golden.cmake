# `imac_run ARGS` must exit 0 and print exactly the checked-in GOLDEN file.
# ARGS and GOLDEN are lists of equal length: element i of ARGS is one
# space-separated argument list, and element i of GOLDEN is its golden.
#
# Usage: cmake -DIMAC_RUN=<imac_run> "-DARGS=<args>[;<args>...]"
#              "-DGOLDEN=<file>[;<file>...]" -P run_golden.cmake
list(LENGTH ARGS cases)
list(LENGTH GOLDEN goldens)
if(NOT cases EQUAL goldens)
  message(FATAL_ERROR "${cases} argument lists but ${goldens} golden files")
endif()
math(EXPR last "${cases} - 1")
foreach(i RANGE ${last})
  list(GET ARGS ${i} line)
  list(GET GOLDEN ${i} golden)
  separate_arguments(argv UNIX_COMMAND "${line}")
  execute_process(COMMAND ${IMAC_RUN} ${argv}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "imac_run ${line} exited ${rc}:\n${err}")
  endif()
  file(READ ${golden} want)
  if(NOT out STREQUAL want)
    message(FATAL_ERROR "imac_run ${line} output differs from ${golden}:\n--- got\n${out}--- want\n${want}")
  endif()
endforeach()
