"""Set-up probe: a fresh interpreter that imports the package and runs one op.

    python3 probe.py <src dir> cli <argv...>
    python3 probe.py <src dir> survey <L> <points> <joints> <directions>

Survey vectors are given as ``;``-separated groups of ``,``-separated floats.
Prints one JSON line with a digest of the op's output (for CLI ops: the exit
code and the captured stdout and stderr), so that the caller can time
start-up to the first completed op and check that the op did its work.

The probe imports the package as a user of that interface would, plus the
survey loop for the ``survey`` kind, and before the op completes nothing
else that the interpreter has not already loaded at start: no numpy, no
json.  Whatever numpy or other import time the probe's wall time holds is
paid by the package.  Run with ``python3 -X importtime`` to see where it goes.
"""

import sys

sys.path.insert(0, sys.argv[1])
kind, args = sys.argv[2], sys.argv[3:]
if kind == "cli":
    import io

    import orthoglide.cli

    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    try:
        code = orthoglide.cli.main(args)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    output = (code, out.getvalue(), err.getvalue())
else:
    import orthoglide as og
    import survey

    def vectors(text):
        return [tuple(float(c) for c in group.split(",")) for group in text.split(";")]

    params = og.ManipulatorParams(float(args[0]))
    output = survey.run_batch(og, params, vectors(args[1]), vectors(args[2]), vectors(args[3]))

import zlib  # noqa: E402  (after the op: the digest is the probe's own cost)

print('{"digest": %d}' % zlib.crc32(repr(output).encode()), flush=True)
