# `imac_run run` must reject flags that cannot change what it prints: exit 2
# naming the flags, instead of silently dropping them. --trace and
# --dump-regs describe a functional run, which --timing does not do, and
# run has no worker pool for --threads to size.
#
# Integer flags must reject a sign, a space or an out-of-range value,
# naming the flag, instead of wrapping or truncating it.
#
# `merge` only reads stores, so a --store naming no store is an error naming
# the path, and must not create the directory.
#
# Inputs the CLI no longer takes are rejected like any unknown flag: exit 2
# with the usage summary on stderr. The checkpoint importer (`import-model`,
# `--import`) and the JSON renditions (`--format`, `list-workloads --json`)
# are deleted; `import-model DIR` now reaches the historical `run` form,
# which takes one program path. With -DREMOVED_INPUTS=ON the script checks
# only these inputs; without it, everything else.
#
# Usage: cmake -DIMAC_RUN=<imac_run> -DPROGRAM=<file.s> -DSPEC=<spec.json>
#              -DWORK_DIR=<scratch dir> -P run_bad_flags.cmake
#        cmake -DIMAC_RUN=<imac_run> -DSPEC=<spec.json> -DCSV=<its report.csv>
#              -DWORK_DIR=<scratch dir> -DREMOVED_INPUTS=ON -P run_bad_flags.cmake
if(REMOVED_INPUTS)
  function(expect_usage)
    execute_process(COMMAND ${IMAC_RUN} ${ARGN}
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
      message(FATAL_ERROR "${ARGN}: exited \"${rc}\", expected 2\n${out}${err}")
    endif()
    if(NOT err MATCHES "usage: imac_run")
      message(FATAL_ERROR "${ARGN}: stderr does not show the usage summary:\n${err}")
    endif()
  endfunction()

  expect_usage(sweep --spec ${SPEC} --format json)
  expect_usage(sweep --spec ${SPEC} --import ${WORK_DIR})
  expect_usage(merge --spec ${SPEC} --format csv ${CSV})
  expect_usage(merge --spec ${SPEC} --import ${WORK_DIR} ${CSV})
  expect_usage(list-workloads --json)
  expect_usage(import-model ${WORK_DIR})
  return()
endif()

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

# Runs the command line after `message` and expects exit 1 with `message`
# on stderr, naming the flag.
function(expect_bad_number message)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "${ARGN}: exited \"${rc}\", expected 1\n${out}${err}")
  endif()
  if(NOT err MATCHES "${message}")
    message(FATAL_ERROR "${ARGN}: stderr does not match \"${message}\":\n${err}")
  endif()
endfunction()

set(bad_threads "--threads expects an unsigned integer at most 1024")
expect_bad_number("${bad_threads}" ${IMAC_RUN} sweep --threads 1025 --spec ${PROGRAM})
expect_bad_number("--max-steps expects an unsigned integer"
                  ${IMAC_RUN} run --max-steps -1 ${PROGRAM})
expect_bad_number("${bad_threads}" ${IMAC_RUN} sweep --threads +4 --spec ${PROGRAM})
expect_bad_number("${bad_threads}" ${IMAC_RUN} sweep --threads " 4" --spec ${PROGRAM})

set(missing_store "${WORK_DIR}/merge_missing_store")
file(REMOVE_RECURSE "${missing_store}")
execute_process(COMMAND ${IMAC_RUN} merge --spec ${SPEC} --store ${missing_store}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc MATCHES "^[1-9][0-9]*$")
  message(FATAL_ERROR "merge --store <missing>: exited \"${rc}\", expected an error exit\n${out}${err}")
endif()
string(FIND "${err}" "${missing_store}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "merge --store <missing>: stderr does not name ${missing_store}:\n${err}")
endif()
if(EXISTS "${missing_store}")
  message(FATAL_ERROR "merge --store <missing>: created ${missing_store}")
endif()
