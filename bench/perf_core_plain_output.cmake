# Runs one short perf_core benchmark with --benchmark_color=false and fails
# if stdout holds an ESC byte (an ANSI colour code) or no result line that
# starts with "BM_": scripts that grep perf_core's console output rely on
# both.
#
# Usage: cmake -DPERF_CORE=<path to perf_core> -P perf_core_plain_output.cmake
execute_process(
  COMMAND "${PERF_CORE}" "--benchmark_filter=^BM_Znorm/168$"
          --benchmark_color=false --benchmark_min_time=0.01
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "perf_core exited with ${rc}:\n${out}")
endif()
string(ASCII 27 esc)
string(FIND "${out}" "${esc}" esc_at)
if(NOT esc_at EQUAL -1)
  message(FATAL_ERROR "stdout holds an ESC byte at offset ${esc_at}:\n${out}")
endif()
if(NOT out MATCHES "(^|\n)BM_")
  message(FATAL_ERROR "no stdout line starts with BM_:\n${out}")
endif()
