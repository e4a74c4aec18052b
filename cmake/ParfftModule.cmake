# The module graph, enforced by the build. src/CMakeLists.txt declares
# every module once, lowest layer first:
#
#   parfft_add_module(<name> LAYER <n> [DEPS <module>...]
#                     [SYSTEM_DEPS <target>...])
#
# which builds src/<name>/*.cpp into parfft_<name> (alias parfft::<name>)
# and links it PUBLIC against parfft_<dep> for each DEPS entry. Configure
# stops when a dependency is not declared above its user or does not sit
# in a strictly lower layer, which rules out upward edges, same-layer
# edges and cycles alike.
#
# The module's only PUBLIC include root is <build>/inc/<name>, holding
# the link <name> -> src/<name>. A target therefore sees the headers of
# the modules it links and no others: an #include of a module outside its
# dependency closure is a compile error. Every header is also compiled
# standalone against its own module's roots, so a header that misses one
# of its own includes, or reaches above its layer, fails even when no
# .cpp includes it.

function(parfft_add_module name)
  cmake_parse_arguments(PARSE_ARGV 1 arg "" "LAYER" "DEPS;SYSTEM_DEPS")
  if(NOT arg_LAYER MATCHES "^[0-9]+$")
    message(FATAL_ERROR "module ${name}: LAYER <n> is required")
  endif()
  foreach(dep IN LISTS arg_DEPS)
    get_property(dep_layer GLOBAL PROPERTY PARFFT_LAYER_${dep})
    if("${dep_layer}" STREQUAL "")
      message(FATAL_ERROR "module ${name} depends on ${dep}, "
                          "which is not declared above it")
    elseif(NOT dep_layer LESS arg_LAYER)
      message(FATAL_ERROR "module ${name} (layer ${arg_LAYER}) may not "
                          "depend on ${dep} (layer ${dep_layer})")
    endif()
  endforeach()
  set_property(GLOBAL PROPERTY PARFFT_LAYER_${name} ${arg_LAYER})

  set(dir ${CMAKE_SOURCE_DIR}/src/${name})
  set(inc ${CMAKE_BINARY_DIR}/inc/${name})
  file(MAKE_DIRECTORY ${inc})
  file(CREATE_LINK ${dir} ${inc}/${name} SYMBOLIC)
  file(GLOB sources CONFIGURE_DEPENDS ${dir}/*.cpp)
  file(GLOB headers RELATIVE ${dir} CONFIGURE_DEPENDS ${dir}/*.hpp)

  add_library(parfft_${name} ${sources})
  add_library(parfft::${name} ALIAS parfft_${name})
  target_include_directories(parfft_${name} PUBLIC ${inc})
  list(TRANSFORM arg_DEPS PREPEND parfft_)
  target_link_libraries(parfft_${name}
    PUBLIC ${arg_DEPS} ${arg_SYSTEM_DEPS}
    PRIVATE parfft_warnings)

  set(tus "")
  foreach(hdr IN LISTS headers)
    set(tu ${CMAKE_BINARY_DIR}/header_checks/${name}/${hdr}.cpp)
    file(WRITE ${tu} "#include \"${name}/${hdr}\"\n")
    list(APPEND tus ${tu})
  endforeach()
  if(tus)
    add_library(parfft_${name}_header_checks OBJECT ${tus})
    target_link_libraries(parfft_${name}_header_checks
                          PRIVATE parfft_${name} parfft_warnings)
  endif()
endfunction()

# Stops configure when a directory under src/ was not declared with
# parfft_add_module: every module has a place in the layer order.
function(parfft_check_modules)
  file(GLOB entries LIST_DIRECTORIES true ${CMAKE_SOURCE_DIR}/src/*)
  foreach(entry IN LISTS entries)
    get_filename_component(name ${entry} NAME)
    get_property(layer GLOBAL PROPERTY PARFFT_LAYER_${name})
    if(IS_DIRECTORY ${entry} AND "${layer}" STREQUAL "")
      message(FATAL_ERROR "src/${name} is not a declared module")
    endif()
  endforeach()
endfunction()
