#!/usr/bin/env python3
"""Runs a command and fails unless it exits with the expected status.

Usage: expect_exit.py <status> <command> [args...]
"""

import subprocess
import sys

expected = int(sys.argv[1])
status = subprocess.run(sys.argv[2:]).returncode
if status != expected:
    sys.exit(f"expected exit status {expected}, got {status}")
