# Run `CLI ARGS` and fail unless it exits 2 with EXPECT in its stderr:
# malformed input must get a named usage error, never an abort.
#
#   cmake -DCLI=<whisper_cli> "-DARGS=<args>" "-DEXPECT=<text>" \
#         -P cli_rejects.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${CLI} ${args}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "exit '${rc}', want 2:\n${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "stderr lacks '${EXPECT}':\n${err}")
endif()
