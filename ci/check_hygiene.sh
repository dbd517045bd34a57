#!/usr/bin/env bash
# Source hygiene: every crate root must forbid unsafe code and deny
# missing docs. Run from the repository root; exits non-zero listing
# the offending files.
set -u

fail=0
roots=(src/lib.rs crates/*/src/lib.rs crates/*/src/main.rs vendor/*/src/lib.rs)

for root in "${roots[@]}"; do
  [ -f "$root" ] || continue
  if [ "$root" = "crates/runtime/src/lib.rs" ]; then
    # magik-runtime is the one crate allowed unsafe code — the epoll
    # backend of its poller module — so its root denies (not forbids)
    # unsafe_code and the exception is policed below.
    if ! grep -q '^#!\[deny(unsafe_code)\]$' "$root"; then
      echo "hygiene: $root is missing #![deny(unsafe_code)]" >&2
      fail=1
    fi
  elif ! grep -q '^#!\[forbid(unsafe_code)\]$' "$root"; then
    echo "hygiene: $root is missing #![forbid(unsafe_code)]" >&2
    fail=1
  fi
  if ! grep -q '^#!\[deny(missing_docs)\]$' "$root"; then
    echo "hygiene: $root is missing #![deny(missing_docs)]" >&2
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "hygiene: add the attributes at the crate root (see DESIGN.md)" >&2
  exit 1
fi

# Unsafe confinement: the only `unsafe` in the workspace is the epoll
# backend of `magik-runtime`'s poller (raw syscall declarations a
# std-only event loop cannot avoid). Anywhere else it is a regression.
unsafe_leaks=$(grep -rln 'unsafe \(fn\|impl\|extern\)\|unsafe {' crates src vendor --include='*.rs' 2>/dev/null \
  | grep -v '^crates/runtime/src/poller.rs$' || true)
if [ -n "$unsafe_leaks" ]; then
  echo "hygiene: unsafe code outside crates/runtime/src/poller.rs:" >&2
  echo "$unsafe_leaks" >&2
  exit 1
fi
if ! grep -q '^#\[allow(unsafe_code)\]$' crates/runtime/src/poller.rs; then
  echo "hygiene: poller.rs must scope its unsafe allowance to the epoll backend" >&2
  exit 1
fi

# Durability boundary: the fsync primitives (`sync_all`/`sync_data`)
# must live only inside magik-storage. Everything above it — server,
# CLI, benches — goes through `Store`, so the WAL/checkpoint ordering
# invariants (data before rename, rename before directory) cannot be
# bypassed.
leaks=$(grep -rln 'sync_all\|sync_data' crates --include='*.rs' | grep -v '^crates/storage/' || true)
if [ -n "$leaks" ]; then
  echo "hygiene: fsync primitives outside crates/storage:" >&2
  echo "$leaks" >&2
  exit 1
fi

# Diagnostic catalogue: every stable M0xx code defined in diag.rs must
# have a `### M0xx` entry in ANALYSES.md, so `magik analyze --explain`
# always has something to print and the docs cannot silently lag the
# analyzer.
missing=""
for code in $(grep -o '=> "M0[0-9][0-9]"' crates/analyze/src/diag.rs | grep -o 'M0[0-9][0-9]' | sort -u); do
  if ! grep -q "^### $code " ANALYSES.md; then
    missing="$missing $code"
  fi
done
if [ -n "$missing" ]; then
  echo "hygiene: diagnostic codes without an ANALYSES.md entry:$missing" >&2
  exit 1
fi

# Trusted-checker boundary: magik-cert audits the engine's certificates
# by direct definition-checking, so it must share zero reasoning code
# with the crates it audits. Only the shared data model (magik-relalg)
# is allowed; a dep edge on completeness/datalog/exec would let an
# engine bug validate itself.
forbidden=$(grep -En '^(magik-completeness|magik-datalog|magik-exec)[ ".=]' crates/cert/Cargo.toml || true)
if [ -n "$forbidden" ]; then
  echo "hygiene: crates/cert/Cargo.toml depends on an engine crate:" >&2
  echo "$forbidden" >&2
  exit 1
fi

# Serving-path boundary: the server answers `guaranteed` by applying T_C
# (equation (1)) on the request's snapshot. The Datalog encoding of T_C
# is a paper artefact kept for cross-validation, so the server must not
# depend on the Datalog engine directly.
forbidden=$(grep -En '^magik-datalog[ ".=]' crates/server/Cargo.toml || true)
if [ -n "$forbidden" ]; then
  echo "hygiene: crates/server/Cargo.toml depends on magik-datalog:" >&2
  echo "$forbidden" >&2
  exit 1
fi

# Oracle boundary: magik-oracle holds the test-only oracles (the seed
# evaluator, the SLD engine). It is never published, and only
# `[dev-dependencies]` sections (plus the bench harness, which measures
# against the oracles) may name it, so no production crate and no
# release binary links it.
if ! grep -Eq '^publish[[:space:]]*=[[:space:]]*false' crates/oracle/Cargo.toml; then
  echo "hygiene: crates/oracle/Cargo.toml must set publish = false" >&2
  exit 1
fi
# Prints each line of the given manifests that names crate $1 inside a
# normal or build dependency section (workspace declarations and
# dev-dependencies do not count).
dependency_edges() {
  awk -v dep="$1" '
    /^[[:space:]]*\[/ {
      header = $0
      sub(/^[[:space:]]*/, "", header)
      sub(/\][^]]*$/, "]", header)
      edge = header ~ /^\[(target\..*\.)?(build-)?dependencies(\..*)?\]$/
      if (edge && header ~ ("\\." dep "\\]$")) print FILENAME ": " $0
      next
    }
    edge && $0 ~ ("^[[:space:]]*" dep "[[:space:]]*[.=]") { print FILENAME ": " $0 }
  ' "${@:2}"
}
manifests=$(ls Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml | grep -v '^crates/bench/Cargo.toml$')
# shellcheck disable=SC2086
forbidden=$(dependency_edges magik-oracle $manifests)
if [ -n "$forbidden" ]; then
  echo "hygiene: a production dependency on magik-oracle:" >&2
  echo "$forbidden" >&2
  exit 1
fi

# CLI boundary: the `magik` binary depends on the crates it calls, not
# on the `magik` facade (which re-exports workloads and more).
forbidden=$(dependency_edges magik crates/cli/Cargo.toml)
if [ -n "$forbidden" ]; then
  echo "hygiene: crates/cli/Cargo.toml depends on the magik facade:" >&2
  echo "$forbidden" >&2
  exit 1
fi

echo "hygiene: all crate roots forbid unsafe_code and deny missing_docs"
echo "hygiene: unsafe code is confined to the runtime poller's epoll backend"
echo "hygiene: fsync primitives are confined to crates/storage"
echo "hygiene: every M0xx code is catalogued in ANALYSES.md"
echo "hygiene: magik-cert has no dependency on the engine crates"
echo "hygiene: magik-server has no dependency on magik-datalog"
echo "hygiene: magik-oracle is unpublished and only dev-dependencies (and benches) use it"
echo "hygiene: magik-cli does not depend on the magik facade"
