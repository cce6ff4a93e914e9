"""Print the set-up time of one workload, measured in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload>
"""

import sys

import workloads

if __name__ == "__main__":
    workloads.use_source_tree()
    print(repr(workloads.timed_setup(sys.argv[1])))
