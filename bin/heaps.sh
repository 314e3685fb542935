#!/bin/sh
# Usage: sh heaps.sh NAME CMD [ARG]...
#
# Runs CMD twice, under a 4K-word and under an 8M-word minor heap, and
# keeps NAME.4k.out, NAME.4k.err, NAME.8M.out and NAME.8M.err.  HEAP
# is 4k or 8M in CMD's environment, for a command that writes a file
# of its own per run.  Fails if either run exits non-zero or the two
# stdouts differ: a command's report must not depend on the GC.
name=$1
shift
# dune names an executable of this directory without a path
case $1 in
  */*) ;;
  *) if [ -f "$1" ]; then
       prog=./$1
       shift
       set -- "$prog" "$@"
     fi ;;
esac
for param in s=4k s=8M,o=200; do
  heap=${param%%,*}
  heap=${heap#s=}
  HEAP=$heap OCAMLRUNPARAM=$param "$@" \
    >"$name.$heap.out" 2>"$name.$heap.err" || {
    echo "heaps.sh: $name exited $? under OCAMLRUNPARAM=$param" >&2
    exit 1
  }
done
diff "$name.4k.out" "$name.8M.out"
