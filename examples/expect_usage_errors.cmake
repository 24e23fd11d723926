# Usage: cmake -DEXE=<binary> "-DCASES=<case>;<case>;..." \
#            -P expect_usage_errors.cmake
#
# A case is one or more space-separated arguments, each <flag>=<value>
# (passed as `<flag> <value>`; the value may hold commas) or a bare
# <flag>. Runs EXE once per case and fails unless every run exits 2
# (usage error) with a one-line stderr reason that names both the last
# argument's flag and its value (a bare flag: the flag, quoted).

set(failures "")
foreach(case IN LISTS CASES)
    string(REPLACE " " ";" words "${case}")
    set(args "")
    foreach(word IN LISTS words)
        string(FIND "${word}" "=" eq)
        if(eq EQUAL -1)
            set(flag "${word}")
            set(value "${word}")
            list(APPEND args "${flag}")
        else()
            string(SUBSTRING "${word}" 0 ${eq} flag)
            math(EXPR value_start "${eq} + 1")
            string(SUBSTRING "${word}" ${value_start} -1 value)
            list(APPEND args "${flag}" "${value}")
        endif()
    endforeach()
    string(REPLACE ";" " " label "${args}")
    execute_process(COMMAND "${EXE}" ${args}
                    RESULT_VARIABLE code
                    OUTPUT_QUIET
                    ERROR_VARIABLE err)
    string(STRIP "${err}" err)
    string(FIND "${err}" "\n" newline)
    string(FIND "${err}" "${flag}" flag_at)
    string(FIND "${err}" "'${value}'" value_at)
    if(NOT code EQUAL 2)
        string(APPEND failures "\n  ${label}: exit ${code}")
    elseif(NOT newline EQUAL -1 OR flag_at EQUAL -1 OR value_at EQUAL -1)
        string(APPEND failures
               "\n  ${label}: reason not one line naming both: ${err}")
    endif()
endforeach()
if(failures)
    message(FATAL_ERROR "${EXE} accepted or mis-reported:${failures}")
endif()
