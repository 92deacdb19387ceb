# `imac_run run --max-steps` must reject a count that is not an unsigned
# integer: exit non-zero with a message naming the flag, instead of running
# whatever prefix strtoull could parse (0 for "abc", 12 for "12x").
#
# Usage: cmake -DIMAC_RUN=<imac_run> -DPROGRAM=<file.s> -P run_bad_max_steps.cmake
foreach(value abc 12x)
  execute_process(COMMAND ${IMAC_RUN} run --max-steps ${value} ${PROGRAM}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "--max-steps ${value}: exited 0, expected an error\n${out}")
  endif()
  if(NOT err MATCHES "--max-steps expects an unsigned integer")
    message(FATAL_ERROR "--max-steps ${value}: stderr does not name the flag:\n${err}")
  endif()
endforeach()
