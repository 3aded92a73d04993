# One determinism test (add_determinism_test in bench/CMakeLists.txt):
#
#   cmake -DNAME=<test> -DEXE=<binary> -DARGS=<args> -DOUTPUTS=<files>
#         -DWORKDIR=<dir> -DGOLDEN=<file> -P check.cmake
#
# Runs EXE with ARGS in an empty WORKDIR, capturing stdout to the file
# `stdout`, and fails on a nonzero exit. Then compares the SHA-256 of each
# of OUTPUTS with the line "<hex>  NAME/<output>" of GOLDEN (sha256sum
# format, so `sha256sum -c` reads it too). A mismatch prints the line that
# would replace the golden one and keeps WORKDIR for diffing; a pass
# deletes it.
foreach(_var NAME EXE OUTPUTS WORKDIR GOLDEN)
  if(NOT DEFINED ${_var})
    message(FATAL_ERROR "check.cmake: -D${_var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})
execute_process(COMMAND ${EXE} ${ARGS}
                WORKING_DIRECTORY ${WORKDIR}
                OUTPUT_FILE ${WORKDIR}/stdout
                RESULT_VARIABLE _rc)
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "${NAME}: ${EXE} exited with '${_rc}'; "
                      "outputs kept in ${WORKDIR}")
endif()

file(STRINGS ${GOLDEN} _lines)
foreach(_line IN LISTS _lines)
  if(_line MATCHES "^([0-9a-f]+)  (.+)$")
    set("_golden_${CMAKE_MATCH_2}" ${CMAKE_MATCH_1})
  endif()
endforeach()

set(_report "")
foreach(_out IN LISTS OUTPUTS)
  set(_key ${NAME}/${_out})
  if(NOT EXISTS ${WORKDIR}/${_out})
    string(APPEND _report "\n${_key}: the run did not write it")
    continue()
  endif()
  file(SHA256 ${WORKDIR}/${_out} _actual)
  set(_expected "${_golden_${_key}}")
  if(NOT _expected)
    set(_expected "(no line)")
  endif()
  if(NOT _actual STREQUAL _expected)
    string(APPEND _report "\n${_key}: digest differs from ${GOLDEN}\n"
           "  expected ${_expected}\n  actual   ${_actual}\n"
           "  replacement line:\n${_actual}  ${_key}")
  endif()
endforeach()

if(_report)
  # Unformatted, so each replacement line prints whole for pasting.
  message("${_report}\n")
  message(FATAL_ERROR "${NAME}: outputs changed (kept in ${WORKDIR})")
endif()
file(REMOVE_RECURSE ${WORKDIR})
