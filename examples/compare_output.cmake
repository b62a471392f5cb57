# Runs APP, writes its stdout to ACTUAL and byte-compares it with
# EXPECTED. Usage:
#   cmake -DAPP=<exe> -DEXPECTED=<golden> -DACTUAL=<out> -P compare_output.cmake
execute_process(COMMAND ${APP} OUTPUT_FILE ${ACTUAL} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${APP} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${EXPECTED} ${ACTUAL}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "stdout of ${APP} differs from ${EXPECTED}; "
                      "see ${ACTUAL}")
endif()
