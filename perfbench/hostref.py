"""A fixed reference job that measures how fast the host is right now.

On a small shared VM the same job's wall time drifts by up to 1.5x over
seconds to minutes with the load of other tenants (a fixed pure-Python
loop took anywhere from 0.27 s to 0.45 s on the 2-vCPU VM this benchmark
was tuned on).  The benchmark runs this script just before every job, in
a process of its own like the job, and scales that job's times by
``NOMINAL_S`` over the script's wall time.  The script does
what a job does, independent of fieldcast: start an interpreter, import
numpy, factorize a matrix with LAPACK, touch fresh memory and run Python.
"""

# Median wall time of this script at the nominal host speed, as measured on
# that VM.  It only sets the unit of the scaled times.
NOMINAL_S = 0.6

if __name__ == "__main__":
    import numpy as np

    a = np.random.default_rng(0).standard_normal((1500, 600))
    np.linalg.svd(a, full_matrices=False)
    b = np.empty(12_500_000)
    b.fill(1.0)
    c = b * 2.0
    total = 0
    for k in range(200_000):
        total += k * k
