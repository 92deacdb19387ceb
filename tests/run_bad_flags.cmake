# `imac_run run` must reject flags that cannot change what it prints: exit 2
# naming the flags, instead of silently dropping them. --trace and
# --dump-regs describe a functional run, which --timing does not do, and
# run has no worker pool for --threads to size.
#
# Usage: cmake -DIMAC_RUN=<imac_run> -DPROGRAM=<file.s> -P run_bad_flags.cmake
function(expect_rejected expected_err)
  execute_process(COMMAND ${IMAC_RUN} run ${ARGN} ${PROGRAM}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "run ${ARGN}: exited ${rc}, expected 2\n${out}${err}")
  endif()
  if(NOT err MATCHES "${expected_err}")
    message(FATAL_ERROR "run ${ARGN}: stderr does not match \"${expected_err}\":\n${err}")
  endif()
endfunction()

expect_rejected("--timing cannot be combined with --trace\n" --timing --trace)
expect_rejected("--timing cannot be combined with --dump-regs\n" --timing --dump-regs)
expect_rejected("--timing cannot be combined with --trace and --dump-regs\n"
                --timing --dump-regs --trace)
expect_rejected("usage: imac_run" --threads 2)
