# Runs BIN and byte-compares its stdout with GOLDEN; on a mismatch the
# actual output is left in ACTUAL for diffing.
#
#   cmake -DBIN=<program> -DGOLDEN=<file> -DACTUAL=<file> -P compare.cmake
execute_process(COMMAND ${BIN} OUTPUT_FILE ${ACTUAL} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${ACTUAL} ${GOLDEN}
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN}; "
                      "actual output kept in ${ACTUAL}")
endif()
