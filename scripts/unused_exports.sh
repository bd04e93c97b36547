#!/bin/sh
# List every `val` in lib/**/*.mli whose name, as a whole word, appears
# in no .ml/.mli under lib, bin, bench, examples or test other than its
# own module's two files (lib/X.ml and lib/X.mli), and fail if one of
# them is not on the allowlist below.  A name that is also a local name
# somewhere else counts as used, so the scan can only under-report: it
# never flags an export that something calls.  Its blind spot is a
# common name: an export called, say, `size` or `peek` passes whatever
# module it belongs to as long as any other module uses that word for
# anything (a record field, a local, another module's function), so an
# export with such a name needs its callers checked by hand.
#
# Usage: scripts/unused_exports.sh   (from the repository root)

# One entry per line: the .mli file, the value, and after a `#` why it
# stays exported.
allow='
'

{
  grep -roE --include='*.ml' --include='*.mli' '[A-Za-z0-9_]+' \
    lib bin bench examples test | sed 's/^/T:/'
  grep -rnE --include='*.mli' '^[[:space:]]*val[[:space:]]+[a-z_]' lib | sed 's/^/V:/'
  printf '%s\n' "$allow" | sed -n 's/^\([^ #]\{1,\}\) \{1,\}\([a-z_][A-Za-z0-9_]*\).*/A:\1:\2/p'
} | awk '
  # T:file:word, one per word occurrence: record the modules using it.
  /^T:/ {
    sub(/^T:/, ""); i = index($0, ":"); f = substr($0, 1, i - 1); w = substr($0, i + 1)
    sub(/\.mli?$/, "", f)
    if (!((w, f) in seen)) { seen[w, f] = 1; users[w] = users[w] " " f }
    next
  }
  # V:file:line:text, one per val declaration.
  /^V:/ {
    sub(/^V:/, ""); split($0, a, ":")
    match($0, /val[ \t]+[a-z_][A-Za-z0-9_]*/)
    name = substr($0, RSTART, RLENGTH); sub(/^val[ \t]+/, "", name)
    n++; file[n] = a[1]; line[n] = a[2]; val[n] = name
    next
  }
  /^A:/ { split($0, a, ":"); allowed[a[2], a[3]] = 1 }
  END {
    bad = 0
    for (k = 1; k <= n; k++) {
      own = file[k]; sub(/\.mli$/, "", own)
      m = split(users[val[k]], u, " "); used = 0
      for (j = 1; j <= m; j++) if (u[j] != own) { used = 1; break }
      if (!used && !((file[k], val[k]) in allowed)) {
        printf "%s:%s: val %s is used nowhere outside its module\n", file[k], line[k], val[k]
        bad = 1
      }
    }
    exit bad
  }'
