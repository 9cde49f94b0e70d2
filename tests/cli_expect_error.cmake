# Runs ${CMD} with the space-separated arguments in ${ARGS} and passes
# only when it exits with status ${EXIT} (default 1) AND prints ${EXPECT}
# (a regex), without aborting: input a program must reject may neither
# run nor fail for some other reason.
if(NOT DEFINED EXIT)
  set(EXIT 1)
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CMD}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc STREQUAL EXIT OR NOT out MATCHES "${EXPECT}"
   OR out MATCHES "terminate called")
  message(FATAL_ERROR
    "expected exit ${EXIT} and '${EXPECT}'; got exit ${rc}:\n${out}")
endif()
