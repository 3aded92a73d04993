# A command-line test that needs one exact exit status:
#
#   cmake -DEXE=<binary> -DARGS=<args> -DEXPECT=<status> -P expect_exit.cmake
#
# Fails unless EXE exits with EXPECT. ctest's WILL_FAIL cannot tell a clean
# error exit from an abort (a signal), so it cannot check this.
foreach(_var EXE EXPECT)
  if(NOT DEFINED ${_var})
    message(FATAL_ERROR "expect_exit.cmake: -D${_var}=... is required")
  endif()
endforeach()

execute_process(COMMAND ${EXE} ${ARGS} RESULT_VARIABLE _rc)
if(NOT _rc STREQUAL EXPECT)
  message(FATAL_ERROR "${EXE} ${ARGS}: exited with '${_rc}', "
                      "expected '${EXPECT}'")
endif()
