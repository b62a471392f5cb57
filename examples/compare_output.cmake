# Runs APP with the space-separated ARGS (optional), writes its stdout to
# ACTUAL and byte-compares it with EXPECTED. Usage:
#   cmake -DAPP=<exe> [-DARGS="<arg> ..."] -DEXPECTED=<golden> -DACTUAL=<out>
#         -P compare_output.cmake
separate_arguments(app_args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${APP} ${app_args} OUTPUT_FILE ${ACTUAL}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${APP} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${EXPECTED} ${ACTUAL}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "stdout of ${APP} differs from ${EXPECTED}; "
                      "see ${ACTUAL}")
endif()
