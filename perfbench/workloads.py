"""The benchmark's named campaign workloads.

Each workload is one closed batch: one campaign through the public
``repro.api.run_campaign``, one client, no arrival process.  The benchmark
seed is turned into inputs here and nowhere else; the program only ever sees
the built gallery spec and campaign spec.

How the seed enters:

* Poisson workloads: the seed is the gallery problem's ``seed`` (the random
  part of the manufactured right-hand side).  Iteration counts move by at
  most one or two per campaign across seeds, so the work per run is steady.
* ``circuit400-bound-sharded``: the gallery's circuit generator draws the
  *matrix* from its seed, and its conditioning swings with it (failure-free
  outer iterations range from 11 to 38 over seeds 0-9 at 400 nodes), so a
  seeded matrix would change the amount of work threefold between runs.  The
  matrix therefore stays the gallery default (the ``mult_dcop_03``
  surrogate) and the seed picks the phase of the strided injection sweep:
  ``locations = range(seed % stride, 475, stride)``.

Sweeps are thinned so that one campaign takes one to two seconds and a run
repeats it ten to thirty times.  On a shared 2-vCPU VM, speed swings by up
to a third with co-tenant load, so a run's median needs many samples: with
wider sweeps (strides 3/12/25, campaigns of 3-9 s, two to seven per run)
the spread of trials_per_s over five seeds was 0.2-0.35 there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: The seed whose per-trial results are committed under ``reference/``.
DEFAULT_SEED = 0

#: Aggregate inner iterations of the failure-free ``circuit:400`` solve with
#: the gallery-default matrix: 19 outer iterations x 25 inner iterations.
CIRCUIT400_LOCATIONS = 19 * 25

_SERIAL = {"backend": "serial", "workers": 1, "kernels": "numpy"}
_SHARDED = {"backend": "sharded", "workers": 2, "shards": 2, "kernels": "numpy"}
_BATCHED = {"backend": "batched", "workers": 1, "kernels": "numpy"}


@dataclass(frozen=True)
class Workload:
    """One named campaign workload.

    ``campaign`` holds the campaign spec fields other than ``problem``,
    ``stride``/``locations`` and ``exec``; ``execution`` pins the backend,
    worker count and kernel tier so no environment default can change them.
    """

    name: str
    why: str
    problem: dict
    stride: int
    execution: dict
    campaign: dict = field(default_factory=dict)
    #: ``"rhs"``: the seed is the gallery seed; ``"phase"``: it picks the
    #: phase of the strided sweep over ``location_range`` locations.
    seed_role: str = "rhs"
    location_range: int | None = None
    #: Workload whose committed reference this one is gated against.
    reference: str | None = None
    #: ``residual_norm`` may differ from the reference by at most
    #: ``max(residual_rtol * |ref|, residual_atol)``.  A converged trial's
    #: true residual is ~1e-8 * ||b||, while rounding in ``b - A x`` is a few
    #: ulps of ||b||, so 1e-6 relative admits a different BLAS reduction
    #: order but not a change of algorithm.
    residual_rtol: float = 1e-6
    residual_atol: float = 0.0

    @property
    def reference_name(self) -> str:
        return self.reference or self.name

    def problem_spec(self, seed: int) -> dict:
        spec = dict(self.problem)
        if self.seed_role == "rhs":
            spec["seed"] = int(seed)
        return spec

    def campaign_spec(self, seed: int, *, stride: int | None = None,
                      serial_replay: bool = False) -> dict:
        """The campaign spec for ``seed``.

        ``stride`` thins the sweep (the benchmark's own tests use it to keep
        runs short); ``serial_replay`` swaps a multi-process backend for the
        serial one, so the traced run sees worker-side spans in-process.
        """
        stride = self.stride if stride is None else int(stride)
        spec = {**self.campaign, "exec": dict(self.execution)}
        if self.seed_role == "phase":
            spec["locations"] = list(range(int(seed) % stride,
                                           self.location_range, stride))
        else:
            spec["stride"] = stride
        if serial_replay and self.multiprocess:
            spec["exec"] = dict(_SERIAL)
        return spec

    @property
    def multiprocess(self) -> bool:
        return self.execution["backend"] == "sharded"


_PAPER_FIRST = {"fault_classes": "paper", "mgs_position": "first"}

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="poisson30-serial",
        why=("interpreter-bound: Arnoldi's Python MGS loop and the injector "
             "hooks dominate a 900-row Poisson campaign on one process"),
        problem={"name": "poisson", "grid_n": 30},
        stride=6,
        execution=_SERIAL,
        campaign=_PAPER_FIRST,
    ),
    Workload(
        name="circuit400-bound-sharded",
        why=("nonsymmetric circuit matrix with the bound detector on 2 shard "
             "workers: the only load on detectors and the sharded supervisor"),
        problem={"name": "circuit", "n_nodes": 400},
        stride=48,
        execution=_SHARDED,
        campaign={**_PAPER_FIRST, "detector": "bound",
                  "detector_response": "zero"},
        seed_role="phase",
        location_range=CIRCUIT400_LOCATIONS,
    ),
    Workload(
        name="poisson100-serial",
        why=("kernel-bound: the paper's 10,000-row Poisson matrix, where spmv "
             "takes the largest share of trial time"),
        problem={"name": "poisson", "grid_n": 100},
        stride=100,
        execution=_SERIAL,
        campaign=_PAPER_FIRST,
    ),
    Workload(
        name="poisson30-batched",
        why=("same inputs as poisson30-serial on the lockstep batched engine, "
             "gated against the serial reference under its 1e-10 contract"),
        problem={"name": "poisson", "grid_n": 30},
        stride=6,
        execution=_BATCHED,
        campaign=_PAPER_FIRST,
        reference="poisson30-serial",
        # The batched engine's documented contract against serial:
        # |r - r_serial| <= 1e-10 * max(1, |r_serial|).
        residual_rtol=1e-10,
        residual_atol=1e-10,
    ),
)}
