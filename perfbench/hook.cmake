# Builds the benchmark inside the repository's own CMake project, unmodified.
#
# run.py configures the repository root with
#   -DCMAKE_PROJECT_INCLUDE=<this file>
# which CMake includes right after the root project() call. The deferred
# include below runs once the root CMakeLists.txt has finished, so the
# benchmark target is defined in the root directory: it links the same
# ember_* libraries and gets the same compile options, language standard
# and default build type that a user build of the repository produces.
if(CMAKE_CURRENT_SOURCE_DIR STREQUAL CMAKE_SOURCE_DIR
   AND NOT DEFINED EMBER_PERFBENCH_DIR)
  set(EMBER_PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})
  cmake_language(DEFER CALL include ${EMBER_PERFBENCH_DIR}/CMakeLists.txt)
endif()
