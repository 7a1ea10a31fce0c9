"""Child process for the fresh-process timings; run it with src on PYTHONPATH.

    probe.py import              times ``import confn.cli``
    probe.py setup PROGRAM       imports confn, reads and parses PROGRAM (the
                                 built-in corpus when PROGRAM is "corpus")
                                 and reports time.monotonic() at the end,
                                 which the parent compares with the moment
                                 it started the process
    probe.py cli STATS ARGS...   runs ``confn`` with ARGS as
                                 ``python -m confn.cli`` would, and writes
                                 the host-speed samples to the file STATS

The first two print one JSON line.  All three sample the host speed
while they run (see hostspeed.py).
"""

import json
import sys
import time

from hostspeed import Sampler


def main() -> int:
    mode = sys.argv[1]
    sampler = Sampler()
    if mode == "cli":
        with sampler:
            from confn.cli import main as cli_main

            code = cli_main(sys.argv[3:])
        with open(sys.argv[2], "w", encoding="utf-8") as handle:
            json.dump(sampler.stats(), handle)
        return code
    with sampler:
        start = time.perf_counter()
        import confn.cli  # noqa: F401

        imported = time.perf_counter() - start
        if mode == "setup":
            from confn import dsl, runner

            path = sys.argv[2]
            if path == "corpus":
                text = runner.CORPUS_PROGRAM
            else:
                with open(path, encoding="utf-8") as handle:
                    text = handle.read()
            dsl.parse(text)
        done = time.monotonic()
    print(json.dumps({"import_s": imported, "done": done, **sampler.stats()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
