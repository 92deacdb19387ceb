# The examples that take arguments parse them strictly: a malformed,
# out-of-range or zero value, or a wrong argument count, exits 1 with a
# message naming the argument, instead of running something else or
# aborting.
#
# Usage: cmake -DCNN_LAYER_DEMO=<exe> -DSPARSITY_EXPLORER=<exe>
#              -P run_bad_args.cmake
function(expect_rejected expected_err)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "${ARGN}: exited \"${rc}\", expected 1\n${out}${err}")
  endif()
  if(NOT err MATCHES "${expected_err}")
    message(FATAL_ERROR "${ARGN}: stderr does not match \"${expected_err}\":\n${err}")
  endif()
endfunction()

set(not_an_index "layer-index expects an unsigned integer at most 19, got")
expect_rejected("${not_an_index} \"abc\"" ${CNN_LAYER_DEMO} abc)
expect_rejected("${not_an_index} \"-1\"" ${CNN_LAYER_DEMO} -1)
expect_rejected("${not_an_index} \"7x\"" ${CNN_LAYER_DEMO} 7x)
expect_rejected("${not_an_index} \"20\"" ${CNN_LAYER_DEMO} 20)
expect_rejected("usage: cnn_layer_demo" ${CNN_LAYER_DEMO} 1 2)

expect_rejected("rows expects an unsigned integer, got \"abc\"" ${SPARSITY_EXPLORER} abc 128 49)
expect_rejected("rows must be positive, got \"0\"" ${SPARSITY_EXPLORER} 0 128 49)
expect_rejected("cols must be positive, got \"0\"" ${SPARSITY_EXPLORER} 32 128 0)
expect_rejected("usage: sparsity_explorer" ${SPARSITY_EXPLORER} 32 128)
