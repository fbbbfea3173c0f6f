# Hash the simulator sources into a header defining SPK_MODEL_DIGEST.
# The cell cache salts every key with it, so a cached result never
# outlives the model code that produced it.
#
#   cmake -DSRC_DIR=<dir> -DOUT=<header> -P model_digest.cmake
#
# The digest covers every .cc/.hh under SRC_DIR, by relative path and
# content, so any edit there (comments included) changes it.
file(GLOB_RECURSE sources RELATIVE ${SRC_DIR}
     ${SRC_DIR}/*.cc ${SRC_DIR}/*.hh)
list(SORT sources)
set(manifest "")
foreach(source ${sources})
  file(SHA256 ${SRC_DIR}/${source} hash)
  string(APPEND manifest "${source} ${hash}\n")
endforeach()
string(SHA256 digest "${manifest}")
string(SUBSTRING ${digest} 0 16 digest)
file(WRITE ${OUT}
     "// Generated from the sources under src/; do not edit.\n"
     "#define SPK_MODEL_DIGEST \"${digest}\"\n")
