#!/usr/bin/env bash
# Builds and runs the end-to-end layered benchmark; see run.py and README.md.
#   bench/e2e/run.sh [--seed S] [--sets N] [--smoke] [--seconds T] [--out F]
exec python3 "$(dirname "$0")/run.py" "$@"
