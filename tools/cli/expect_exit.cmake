# A command-line test that needs one exact exit status:
#
#   cmake -DEXE=<binary> -DARGS=<args> -DEXPECT=<status> -P expect_exit.cmake
#
# Fails unless EXE exits with EXPECT. ctest's WILL_FAIL cannot tell a clean
# error exit from an abort (a signal), so it cannot check this. With
# -DDIR=<dir> the run starts in a freshly emptied DIR, and with
# -DABSENT=<file> it also fails if the run left <file> in that directory.
# With -DPLAIN=1 it also fails if stdout carries an ESC byte (a terminal
# escape code, such as a colour).
foreach(_var EXE EXPECT)
  if(NOT DEFINED ${_var})
    message(FATAL_ERROR "expect_exit.cmake: -D${_var}=... is required")
  endif()
endforeach()

set(_workdir "")
if(DEFINED DIR)
  file(REMOVE_RECURSE ${DIR})
  file(MAKE_DIRECTORY ${DIR})
  set(_workdir WORKING_DIRECTORY ${DIR})
endif()

set(_capture "")
if(DEFINED PLAIN)
  set(_capture OUTPUT_VARIABLE _stdout)
endif()

execute_process(COMMAND ${EXE} ${ARGS} ${_workdir} ${_capture}
                RESULT_VARIABLE _rc)
if(NOT _rc STREQUAL EXPECT)
  message(FATAL_ERROR "${EXE} ${ARGS}: exited with '${_rc}', "
                      "expected '${EXPECT}'")
endif()
if(DEFINED ABSENT AND EXISTS ${DIR}/${ABSENT})
  message(FATAL_ERROR "${EXE} ${ARGS}: wrote ${ABSENT} in ${DIR}")
endif()
if(DEFINED PLAIN)
  message("${_stdout}")
  string(ASCII 27 _esc)
  string(FIND "${_stdout}" "${_esc}" _at)
  if(NOT _at EQUAL -1)
    message(FATAL_ERROR "${EXE} ${ARGS}: wrote an escape code to stdout")
  endif()
endif()
