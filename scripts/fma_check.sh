#!/usr/bin/env bash
# fma-check: cross-compiles each package given as an argument (the
# Makefile's FMA_PACKAGES) for arm64 with the compiler's assembly
# listing (-gcflags=-S) and fails on any fused multiply-add in it —
# FMADDD, FMSUBD, FNMADDD or FNMSUBD, or their single-precision forms
# FMADDS, FMSUBS, FNMADDS and FNMSUBS. A fused op rounds once where
# amd64 rounds twice, so a single one makes results depend on the
# architecture; explicit float64(...) conversions keep the compiler
# from fusing. The listing covers code inlined into the package too.
# It needs no network: the toolchain cross-compiles from its own
# sources. The build output goes to /dev/null, so a main package leaves
# no binary in the checkout. `make check` runs it.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
for pkg in "$@"; do
  if ! asm=$(GOARCH=arm64 go build -o /dev/null -gcflags=-S "$pkg" 2>&1); then
    echo "fma-check: arm64 build of $pkg failed:" >&2
    echo "$asm" >&2
    exit 1
  fi
  fused=$(grep -E '\s(FMADDD|FMSUBD|FNMADDD|FNMSUBD|FMADDS|FMSUBS|FNMADDS|FNMSUBS)\s' <<<"$asm" || true)
  if [ -n "$fused" ]; then
    echo "fma-check: fused multiply-adds in $pkg (pin each product with float64(...)):" >&2
    echo "$fused" >&2
    status=1
  fi
done
exit $status
