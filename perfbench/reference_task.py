"""A fixed reference task that times the machine, not the program.

    python3 perfbench/reference_task.py

The end-to-end run starts this script as a subprocess right before every
``qcert`` job and divides the job's time by the script's. On a shared host
the speed of a core changes by a factor of up to 1.5 in phases of seconds to
minutes, and a job and the reference task run next to it slow down together,
so the ratio keeps steady where raw seconds do not.

The task does what a ``qcert`` job does, in the same kinds of code, without
importing ``qcert``: it starts an interpreter and imports numpy, emits and
parses JSON, turns nested lists of number pairs into a complex matrix in a
Python loop, formats floats, and runs small and medium numpy kernels. Its
inputs are fixed, so its work is the same on every run and at every commit.
"""

import json

import numpy as np

SIDE = 96  # side of the complex matrix that goes through JSON
ROUNDS = 3


def main() -> None:
    rng = np.random.default_rng(20061124)
    m = rng.standard_normal((SIDE, SIDE)) + 1j * rng.standard_normal((SIDE, SIDE))
    for _ in range(ROUNDS):
        doc = {"dims": [2] * 6, "matrix": [[[z.real, z.imag] for z in row] for row in m]}
        text = json.dumps(doc)
        body = json.loads(text)["matrix"]
        parsed = np.array([[complex(re, im) for re, im in row] for row in body])
        rho = parsed @ parsed.conj().T
        rho /= np.trace(rho).real
        total = 0.0
        for bits in range(1, 64):
            keep = [p for p in range(6) if bits >> p & 1]
            t = rho[:64, :64].reshape((2,) * 12)
            axes = [p for p in range(6) if p not in keep]
            for p in sorted(axes, reverse=True):
                n = t.ndim // 2
                t = np.trace(t, axis1=p, axis2=p + n)
            side = 2 ** len(keep)
            r = t.reshape(side, side)
            total += float(np.real(np.vdot(r, r)))
        np.linalg.eigvalsh(rho)
        "".join(f"{x:.17g}," for x in rho.real.ravel()[:4000])
    print(f"{total:.6f}")


if __name__ == "__main__":
    main()
