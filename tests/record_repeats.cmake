# Record every suite app twice, each in a fresh `CLI record` process at
# one thread, and fail unless the two trace files are byte-identical:
# a recorded trace must not depend on where ASLR put the stack or heap.
# The two files' paths have the same length, so both processes make
# the same allocations.
#
#   cmake -DCLI=<whisper_cli> -DDIR=<scratch dir> -P record_repeats.cmake
execute_process(COMMAND ${CLI} list
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE apps)
if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "`list` exited '${rc}'")
endif()
string(REGEX MATCHALL "[^\n]+" apps "${apps}")
list(LENGTH apps count)
if(count LESS 14)
    message(FATAL_ERROR "`list` names ${count} apps, want 14")
endif()
file(MAKE_DIRECTORY ${DIR})
set(differ "")
foreach(app IN LISTS apps)
    foreach(run a b)
        execute_process(COMMAND ${CLI} record ${app} ${DIR}/${run}.bin
                                40 1
                        RESULT_VARIABLE rc
                        OUTPUT_QUIET)
        if(NOT rc STREQUAL "0")
            message(FATAL_ERROR "record ${app} exited '${rc}'")
        endif()
    endforeach()
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            ${DIR}/a.bin ${DIR}/b.bin
                    RESULT_VARIABLE same)
    if(NOT same STREQUAL "0")
        list(APPEND differ ${app})
    endif()
endforeach()
file(REMOVE_RECURSE ${DIR})
if(differ)
    message(FATAL_ERROR "two recordings differ for: ${differ}")
endif()
