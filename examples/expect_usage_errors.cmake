# Usage: cmake -DEXE=<binary> -DCASES=<flag>=<value>,<flag>,... -P expect_usage_errors.cmake
#
# Runs EXE once per case, as `EXE <flag> <value>` for a <flag>=<value>
# case and as `EXE <flag>` for a bare <flag> case, and fails unless
# every run exits 2 (usage error) with a one-line stderr reason that
# names both the flag and the value (a bare flag: the flag, quoted).

string(REPLACE "," ";" cases "${CASES}")
set(failures "")
foreach(case IN LISTS cases)
    string(FIND "${case}" "=" eq)
    if(eq EQUAL -1)
        set(flag "${case}")
        set(value "${case}")
        set(args "${flag}")
        set(label "${flag}")
    else()
        string(SUBSTRING "${case}" 0 ${eq} flag)
        math(EXPR value_start "${eq} + 1")
        string(SUBSTRING "${case}" ${value_start} -1 value)
        set(args "${flag}" "${value}")
        set(label "${flag} ${value}")
    endif()
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
