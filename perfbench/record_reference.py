"""Record the outputs of every pool input into reference.json.

    PYTHONPATH=src python3 perfbench/record_reference.py --size full

The benchmark's output check compares every operation with these values,
so they are recorded once, from a commit whose outputs are trusted, and
re-recorded only when a change of the outputs is intended.
"""

import argparse
import json
import tempfile

import workloads


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--size", choices=tuple(workloads.DESIGNS), required=True)
    args = p.parse_args()
    try:
        with open(workloads.REFERENCE) as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {}
    table = reference[args.size] = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name in workloads.NAMES:
            wl = workloads.Workload(name, args.size, workdir)
            table[name] = {}
            for key in range(wl.design.pool):
                wl.prepare(key)
                table[name][str(key)] = wl.outputs(wl.operation(key)())
                print(name, key, table[name][str(key)], flush=True)
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
