#!/usr/bin/env bash
# Prints one line per seeded harness run over a fixed list of 2,480 runs:
#
#   <command> seed N [name] ok|FAIL trace=EVENTS@HASH
#
# Run it on two builds and diff the outputs: every changed trace hash and
# every changed battery status shows up. A change that deletes code should
# leave the list identical (see ROADMAP.md).
#
#   tools/hashlist.sh build/tools > after.txt
#   tools/hashlist.sh build/tools --backend thread
#
# Extra flags are appended to every command. Seeds run once each
# (--no-replay); the list itself is the determinism check.
set -eu

if [ $# -lt 1 ]; then
  echo "usage: $0 <tools-dir> [flags...]" >&2
  exit 2
fi
dir=$1
shift
extra=("$@")

# run <seeds> <tool> <args...>
run() {
  local seeds=$1
  shift
  local label="$*"
  # A sweep with a failing seed exits 1; its FAIL lines are the output.
  "$dir/$1" "${@:2}" --seeds "$seeds" --no-replay "${extra[@]}" |
    sed -nE "s/^(seed [0-9]+ \[[^]]*\]): (ok|FAIL) .*(trace=[0-9]+@[0-9a-f]+).*/$label \1 \2 \3/p"
}

for p in mixed crashes partitions loss; do
  run 200 chaossim --profile "$p"
done
run 200 chaossim --profile mixed --deadlines
run 200 chaossim --profile mixed --corrupt --dup --reorder
run 200 chaossim --profile crashes --storage-faults
run 100 chaossim --profile crashes --storage-faults --torn-rate 1 --lost-rate 1
run 100 chaossim --profile mixed --storage-faults

for s in steady storm spike diurnal tenants neworder neworder-crash chaos-storm; do
  run 100 loadsim --scenario "$s"
done
for s in steady storm neworder chaos-storm; do
  run 20 loadsim --scenario "$s" --storage-faults
done
