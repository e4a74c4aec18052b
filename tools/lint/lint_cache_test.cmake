# ctest driver for parfft_lint's incremental cache (test lint_cache).
#
# Runs the linter twice over src/ against a fresh cache file and checks
# the contract the lint_all consolidation rests on:
#   1. both runs exit 0 (the tree is clean),
#   2. the findings (full stderr minus the summary line) are
#      byte-identical across runs, and
#   3. the first run analysed every file while the second analysed none
#      (served entirely from the content-hash cache).
#
# Variables: LINT (linter binary), SRC (repo root), CACHE (cache path).

file(REMOVE "${CACHE}")

set(ARGS
    --counters=${SRC}/tools/lint/accounting.def
    --cache=${CACHE}
    ${SRC}/src)

execute_process(COMMAND ${LINT} ${ARGS}
                RESULT_VARIABLE r1 ERROR_VARIABLE e1 OUTPUT_VARIABLE o1)
if(NOT r1 EQUAL 0)
  message(FATAL_ERROR "first lint run failed (exit ${r1}):\n${e1}")
endif()

execute_process(COMMAND ${LINT} ${ARGS}
                RESULT_VARIABLE r2 ERROR_VARIABLE e2 OUTPUT_VARIABLE o2)
if(NOT r2 EQUAL 0)
  message(FATAL_ERROR "second lint run failed (exit ${r2}):\n${e2}")
endif()

# Strip the "parfft_lint: ... analysed N file(s), M cached" summary line
# (the only line allowed to differ) and compare what remains.
string(REGEX REPLACE "parfft_lint: [^\n]*\n?" "" f1 "${e1}")
string(REGEX REPLACE "parfft_lint: [^\n]*\n?" "" f2 "${e2}")
if(NOT f1 STREQUAL f2)
  message(FATAL_ERROR
          "cached run changed the findings:\n--- run 1 ---\n${f1}\n"
          "--- run 2 ---\n${f2}")
endif()

if(e1 MATCHES "analysed 0 file")
  message(FATAL_ERROR "first run unexpectedly hit a warm cache:\n${e1}")
endif()
if(NOT e2 MATCHES "analysed 0 file")
  message(FATAL_ERROR
          "second run re-analysed files instead of using the cache:\n${e2}")
endif()
