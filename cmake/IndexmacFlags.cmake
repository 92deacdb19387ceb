# Shared compiler-flag setup: warning set and opt-in sanitizers. Applied
# through the indexmac_flags interface target so every binary in the tree
# (library, tools, tests, examples and the sweep benchmark's probe) gets
# a consistent build line.
add_library(indexmac_flags INTERFACE)

if(CMAKE_CXX_COMPILER_ID MATCHES "GNU|Clang")
  target_compile_options(indexmac_flags INTERFACE -Wall -Wextra)
elseif(MSVC)
  target_compile_options(indexmac_flags INTERFACE /W4)
endif()

if(INDEXMAC_SANITIZE)
  string(REPLACE "," ";" _imac_san_list "${INDEXMAC_SANITIZE}")
  foreach(_san IN LISTS _imac_san_list)
    target_compile_options(indexmac_flags INTERFACE -fsanitize=${_san} -fno-omit-frame-pointer)
    target_link_options(indexmac_flags INTERFACE -fsanitize=${_san})
  endforeach()
  message(STATUS "indexmac: sanitizers enabled: ${INDEXMAC_SANITIZE}")
endif()
