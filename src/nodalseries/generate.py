"""Seeded random instance generation.

Exact series are generated profile-first: the feasible assignments of
mobile dimensions along the ladder are counted, one is drawn uniformly by
its rank in lex order, and it is realized by forward propagation. Each
space is built from the previous one as a graph over its first-block part
plus the embedded second-block image, so the linking equalities, the
dimensions and section-space membership hold by construction; randomness
enters through the kernel choices and the graph images. Every fact about a
section space S_i (its block dimensions, the flag a kernel lives in, a
mover's free coordinates and glue row, a corruption's room) is read off
``curve.section_shape``, so no section space is built.

Three conditions can fail on a draw, and only they are drawn again, each
within ``_STEP_TRIES`` tries: random vectors dependent on the part they
extend (``_complement_vectors``), a kernel that misses the glue coordinate
the next slot needs (``_kernel_flag``), and a new space that meets W1 in
more than its kernel (``_next_space``). A budget that runs out raises
GenerationError naming the step, and ``random_exact_lls`` adds the drawn
profile; nothing is re-checked after the build. Linked orbit pairs are
built the same way, from a block profile chosen first.

Every block invariant is read off ``torus.block_profile``, which the value
keeps. The generator works on rows: a room, the parts of the previous
space a slot reuses and a graph's base are row tuples, and a span is built
only where it is kept (a kernel, a space, a corrupted slot), as one
``Subspace.from_spanning`` of the stacked rows; the canonical basis is
unique, so these give the same values as intersecting and adding. A draw
that is only tested for independence is tested on its residuals modulo
the part it extends (``_extends``). Each new space is profiled while it is
tested, so the next slot reuses it.

All randomness flows from one integer seed through per-stage substreams, so
every failure is reproducible.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Sequence
from fractions import Fraction

from .curve import CurveModel, SectionShape, section_shape
from .delta import DeltaSet, build_delta, check_steps
from .linalg import ONE, ZERO, Subspace, is_zero_vector
from .series import (
    LimitLinearSeries,
    check_compatible,
    check_exact,
    membership_failures,
    numerical_data,
)
from .torus import (
    Direction,
    TorusSplit,
    block_profile,
    embed_block,
    is_fixed,
    limit,
    meet_block,
)


class GenerationError(RuntimeError):
    pass


_STEP_TRIES = 30


# ---------------------------------------------------------------------------
# generic random subspaces


def _independent_rows(
    ambient_dim: int, count: int, rng: random.Random
) -> tuple[list[list[Fraction]], Subspace]:
    """``count`` scruffy random vectors of Q^n that are independent, and their span."""
    for _ in range(200):
        rows = [
            [Fraction(rng.randint(-4, 4)) for _ in range(ambient_dim)]
            for _ in range(count)
        ]
        span = Subspace.from_spanning(ambient_dim, rows)
        if span.dim == count:
            return rows, span
    raise GenerationError(f"could not hit a rank-{count} subspace of Q^{ambient_dim}")


def random_subspace(ambient_dim: int, dim: int, rng: random.Random) -> Subspace:
    """A uniformly scruffy random subspace with exactly the requested dimension."""
    if not 0 <= dim <= ambient_dim:
        raise ValueError("dimension out of range")
    return _independent_rows(ambient_dim, dim, rng)[1]


def random_nonfixed_subspace(split: TorusSplit, dim: int, rng: random.Random) -> Subspace:
    for _ in range(200):
        v = random_subspace(split.ambient_dim, dim, rng)
        if not is_fixed(split, v):
            return v
    raise GenerationError("could not find a nonfixed subspace; blocks too small?")


_Rows = Sequence[tuple[Fraction, ...]]


def _unit_rows(ambient_dim: int, coords: Sequence[int]) -> list[tuple[Fraction, ...]]:
    """The unit vectors of Q^ambient_dim at ``coords``, e.g. the rows spanning S_i ∩ W1."""
    return [(ZERO,) * c + (ONE,) + (ZERO,) * (ambient_dim - c - 1) for c in coords]


def _vectors_inside(
    rows: _Rows, ambient_dim: int, count: int, rng: random.Random
) -> list[tuple[Fraction, ...]]:
    """``count`` random combinations of ``rows``, vectors of Q^ambient_dim."""
    out = []
    for _ in range(count):
        vec = [ZERO] * ambient_dim
        for row in rows:
            c = Fraction(rng.randint(-3, 3))
            if c:
                for j, b in enumerate(row):
                    if b is not ZERO and b:
                        vec[j] = (vec[j] + c * b) or ZERO
        out.append(tuple(vec))
    return out


def _extends(part: Subspace, vectors: _Rows) -> bool:
    """Whether ``vectors`` extend ``part`` by exactly len(vectors) dimensions.

    ``Subspace.residual`` is linear and zero exactly on ``part``, so the
    span of ``part`` and the vectors has dimension part.dim plus the rank
    of their residuals. A single vector needs only a nonzero residual, so
    no span of ``part`` and the vectors is built.
    """
    residuals = [part.residual(v) for v in vectors]
    if len(residuals) > 1:
        return Subspace.from_spanning(part.ambient_dim, residuals).dim == len(residuals)
    return not any(map(is_zero_vector, residuals))


def _complement_vectors(
    rows: _Rows,
    part: Subspace,
    count: int,
    rng: random.Random,
    step: str,
    hit: int | None = None,
) -> list[tuple[Fraction, ...]]:
    """``count`` vectors in the span of ``rows`` extending ``part`` by exactly
    ``count`` dimensions, in ``part``'s ambient space.

    The caller guarantees part.dim + count <= dim span(rows). A dependent
    draw, or with ``hit`` one whose span with ``part`` is zero at that
    coordinate, is drawn again; a budget that runs out raises
    GenerationError naming ``step``. With ``count`` 0 nothing is drawn: the
    first try returns no vectors when ``part`` reaches ``hit``, and the
    error is raised at once when it does not.
    """
    reached = hit is None or any(row[hit] for row in part.rows)
    if not (count or reached):
        raise GenerationError(f"{step}: nothing to draw, and the part misses coordinate {hit}")
    for _ in range(_STEP_TRIES):
        vectors = _vectors_inside(rows, part.ambient_dim, count, rng)
        if (reached or any(vec[hit] for vec in vectors)) and _extends(part, vectors):
            return vectors
    raise GenerationError(f"{step}: no fitting draw in {_STEP_TRIES} tries")


# ---------------------------------------------------------------------------
# linked orbit pairs (for the orbit-intersection dichotomy)


def _graph_partner(
    split: TorusSplit, over_rows: _Rows, fixed_rows: _Rows, rng: random.Random
) -> Subspace:
    """{graph over a first-block subspace} + {an embedded second-block one}.

    ``over_rows`` and ``fixed_rows`` are the canonical bases of a first-block
    and a second-block subspace. The result projects onto exactly the span
    of ``over_rows`` in the first block and meets the second block in
    exactly that of ``fixed_rows``, since the graph rows are independent on
    the first block; retried until it is nonfixed (some graph image escapes
    the fixed part).
    """
    fixed = [(ZERO,) * split.dim1 + row for row in fixed_rows]
    for _ in range(_STEP_TRIES):
        rows = [
            row + tuple(Fraction(rng.randint(-3, 3)) for _ in range(split.dim2))
            for row in over_rows
        ]
        candidate = Subspace.from_spanning(split.ambient_dim, rows + fixed)
        if not is_fixed(split, candidate):
            return candidate
    raise GenerationError("could not draw a nonfixed partner over the first-block part")


def _linked_profiles(split: TorusSplit, dim: int) -> list[tuple[int, int, int]]:
    """Block sizes (a, k, m) of forward-linked pairs of dimension ``dim``.

    The first subspace has a = dim inside_first, k = dim inside_second and
    orbit degree m, so dim = a + k + m. Its first-block projection needs
    room (a + m <= dim1), the partner's graph base is its first-block part
    (a >= 1), and the partner can only move if one second-block direction
    lies outside the first subspace's projection (k + m <= dim2 - 1).
    """
    return [
        (a, dim - a - m, m)
        for m in range(1, dim + 1)
        for a in range(1, dim - m + 1)
        if a + m <= split.dim1 and dim - a <= split.dim2 - 1
    ]


def random_linked_pair(
    split: TorusSplit,
    dim: int,
    rng: random.Random,
    meeting: bool,
    mirrored: bool = False,
) -> tuple[Subspace, Subspace]:
    """A pair of nonfixed subspaces linked block-to-block.

    The pair always satisfies the hypothesis of the orbit-closure dichotomy:
    the second subspace's first-block projection equals the first one's
    first-block part (or the mirrored version). With ``meeting`` the shared
    boundary limit lies on both closures; otherwise the remaining block is
    replaced so the closures are disjoint.

    The pair is built from a block profile drawn first, so no draw waits on
    a rare event. Such a pair exists exactly when both blocks have
    dimension at least 2 and 2 <= dim <= dim1 + dim2 - 2; otherwise
    GenerationError is raised at once.
    """
    work = TorusSplit(split.dim2, split.dim1) if mirrored else split
    profiles = _linked_profiles(work, dim)
    if not profiles:
        raise GenerationError(
            f"no linked orbit pair of dimension {dim} exists for blocks of"
            f" dimensions {split.dim1} and {split.dim2}: it needs both blocks of"
            " dimension at least 2 and 2 <= dim <= dim1 + dim2 - 2"
        )
    a, k, m = rng.choice(profiles)
    first_rows, _ = _independent_rows(work.dim1, a + m, rng)
    second_rows, onto_second = _independent_rows(work.dim2, k + m, rng)
    zero1 = [ZERO] * work.dim1
    zero2 = [ZERO] * work.dim2
    # v = A + B + graph(C -> Phi): first-block part A, second-block part B,
    # and m mixed rows pairing C with Phi
    rows = (
        [row + zero2 for row in first_rows[:a]]
        + [zero1 + row for row in second_rows[:k]]
        + [c + phi for c, phi in zip(first_rows[a:], second_rows[k:])]
    )
    v = Subspace.from_spanning(work.ambient_dim, rows)
    fixed_part = onto_second
    if not meeting:
        for _ in range(_STEP_TRIES):
            fixed_part = random_subspace(work.dim2, k + m, rng)
            if fixed_part != onto_second:
                break
        else:
            raise GenerationError("could not draw a second-block part that breaks the meeting")
    over_rows = Subspace.from_spanning(work.dim1, first_rows[:a]).rows
    partner = _graph_partner(work, over_rows, fixed_part.rows, rng)
    if mirrored:
        return _unswap(split, v), _unswap(split, partner)
    return v, partner


def _unswap(split: TorusSplit, v: Subspace) -> Subspace:
    """Move a subspace built in swapped block order back to the original order."""
    rows = [row[split.dim2 :] + row[: split.dim2] for row in v.rows]
    return Subspace.from_spanning(split.ambient_dim, rows)


# ---------------------------------------------------------------------------
# exact series generation


def _caps_ok(caps: tuple[int, int, int, int], r: int, a: int, m: int) -> bool:
    """Whether mobile dimension m fits at a slot whose S_i has ``block_dims`` caps.

    ``a`` is the first-block image dimension entering the slot. Its space V
    then has onto_first a, inside_first q = a - m, inside_second
    p = r + 1 - a and onto_second p + m, and each must fit under S_i's.
    """
    onto_first, inside_first, inside_second, onto_second = caps
    q, p = a - m, r + 1 - a
    return (
        a <= onto_first and 0 <= q <= inside_first and 0 <= p <= inside_second
        and p + m <= onto_second
    )


class _Profiles(Sequence[tuple[int, ...]]):
    """The exact minimal mobile-dimension profiles of one parameter set, counted.

    A profile assigns each ladder index a nonnegative mobile dimension,
    positive at non-integer indices, summing to r + 1 and passing
    ``_caps_ok`` at every slot. The ladder has sum(delta) - d non-integer
    indices, each needing mobile dimension at least 1, so more than r + 1
    of them leave no profile; that is answered before the ladder is built.

    ``_options[k, a]`` lists, for position k entered with image dimension
    a, each allowed m that has completions, with their number. It is
    memoised over the reachable (k, a), so ``total`` costs one visit per
    pair and indexing walks straight to a profile in lex order. So the
    sequence lists no profile; ``len()`` overflows past ``sys.maxsize``, as
    it does for ``range``, and ``total`` does not.
    """

    def __init__(self, d: int, r: int, delta: Sequence[int]) -> None:
        steps = check_steps(d, delta)
        self.model = CurveModel(d)
        self.r = r
        self.ladder: DeltaSet | None = None
        self.shapes: tuple[SectionShape, ...] = ()
        self._options: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self.total = 0
        if sum(steps) - d > r + 1:
            return
        self.ladder = build_delta(d, steps)
        self.shapes = tuple(section_shape(self.model, i) for i in self.ladder.indices)
        self._caps = [shape.block_dims for shape in self.shapes]
        self._future_min = [0] * (len(self.shapes) + 1)
        for k in range(len(self.shapes) - 1, -1, -1):
            self._future_min[k] = self._future_min[k + 1] + (self.shapes[k].glue is None)
        self.total = self._count(0, r + 1)

    def _count(self, k: int, a: int) -> int:
        if k == len(self.shapes):
            return int(a == 0)
        options = self._options.get((k, a))
        if options is None:
            options = self._options[k, a] = []
            low = 0 if self.shapes[k].glue else 1
            for m in range(low, a - self._future_min[k + 1] + 1):
                if _caps_ok(self._caps[k], self.r, a, m):
                    count = self._count(k + 1, a - m)
                    if count:
                        options.append((m, count))
        return sum(count for _, count in options)

    def __len__(self) -> int:
        return self.total

    def __getitem__(self, index: int) -> tuple[int, ...]:
        """The index-th profile in lex order, walked to without listing the others."""
        if index < 0:
            index += self.total
        if not 0 <= index < self.total:
            raise IndexError("profile index out of range")
        profile, a = [], self.r + 1
        for k in range(len(self.shapes)):
            for m, count in self._options[k, a]:
                if index < count:
                    break
                index -= count
            profile.append(m)
            a -= m
        return tuple(profile)


def exact_minimal_profiles(d: int, r: int, delta: Sequence[int]) -> Sequence[tuple[int, ...]]:
    """All feasible exact minimal mobile-dimension profiles, in lex order.

    The result is a sequence that counts them (see ``_Profiles``) and walks
    to the profile asked for, so it lists none: its ``total`` is 1093 at
    d = 8, r = 5, delta 1^8 and 3610705776755 at d = 32, r = 16, delta
    1^32. Empty means no exact minimal series of these parameters exists in
    the model.
    """
    return _Profiles(d, r, delta)


def minimal_series_exists(d: int, r: int, delta: Sequence[int]) -> bool:
    """Whether any exact minimal series of these parameters exists."""
    return 0 <= r <= d and _Profiles(d, r, delta).total > 0


def _kernel_flag(profiles: _Profiles, mobile: Sequence[int], rng: random.Random) -> list[Subspace]:
    """Nested first-block kernels along the ladder, built top-down.

    The kernel at each position contains the kernel at the next one and must
    fit in the t-flag of its section space, which shrinks along the ladder,
    so the whole chain is constructed backwards; the profile caps make every
    extension fit, and each extends the next kernel by that slot's mobile
    dimension. When the next section space has a glue row and its
    onto_second cap is tight, every second-block direction is needed,
    including the glue one, so the kernel is drawn again until it reaches
    the glue row's t coefficient and a mover can carry it.
    """
    shapes, r, ambient_dim = profiles.shapes, profiles.r, profiles.model.ambient_dim
    q_dims = [r + 1 - done for done in itertools.accumulate(mobile)]
    flags = []
    current = Subspace.zero(ambient_dim)
    for pos in range(len(shapes) - 1, -1, -1):
        room = _unit_rows(ambient_dim, shapes[pos].t_flag)
        hit = None
        if pos + 1 < len(shapes):
            nxt = shapes[pos + 1]
            p_next = r + 1 - q_dims[pos]
            if nxt.glue and p_next + mobile[pos + 1] == nxt.block_dims[3]:
                hit = nxt.glue[0]
        step = f"the kernel at ladder position {pos}"
        vectors = _complement_vectors(room, current, q_dims[pos] - current.dim, rng, step, hit)
        if vectors:
            current = Subspace.from_spanning(ambient_dim, current.rows + tuple(vectors))
        flags.append(current)
    return flags[::-1]


def _first_space(
    model: CurveModel, shape: SectionShape, kernel: Subspace, mobile0: int, rng: random.Random
) -> Subspace:
    """The kernel, plus the mover when S_0 carries mobile dimension.

    The kernel lies in the t-flag t^1..t^d and the mover has t^0 coefficient
    1, so the two are independent.
    """
    rows = list(kernel.rows)
    if mobile0:
        # S_0 meets the second block in 0, so the mover is the glue row
        # t^0 + s^d plus random terms on the t-flag.
        vec = [ZERO] * model.ambient_dim
        for c in shape.glue:
            vec[c] = ONE
        for c in shape.t_flag:
            vec[c] += Fraction(rng.randint(-3, 3))
        rows.append(tuple(vec))
    return Subspace.from_spanning(model.ambient_dim, rows)


def _next_space(
    model: CurveModel,
    shape: SectionShape,
    pos: int,
    mobile: int,
    kernel: Subspace,
    prev: Subspace,
    rng: random.Random,
) -> Subspace:
    """The space at ladder position ``pos``: the kernel, the previous space's
    W2 projection carried over, and ``mobile`` movers.

    Each mover is a vector of the previous space's part inside W1 off the
    kernel, with its glue image and random terms on the s-flag. It lies in
    S_i by construction, and kernel plus movers are independent on W1, so
    only the part inside W1 can come out larger than the kernel; that draw
    is made again.
    """
    split, ambient_dim = model.split, model.ambient_dim
    prev_profile = block_profile(split, prev)
    pad = (ZERO,) * (model.d + 1)  # both blocks have d + 1 coordinates
    incoming = [row + pad for row in prev_profile.inside_first.rows]
    kept = kernel.rows + tuple(pad + row for row in prev_profile.onto_second.rows)
    step = f"the space at ladder position {pos}"
    for _ in range(_STEP_TRIES):
        rows = list(kept)
        for w in _complement_vectors(incoming, kernel, mobile, rng, step):
            vec = list(w)
            if shape.glue:
                # Node condition: the image's s coefficient on the glue row
                # matches the mover's t coefficient there.
                t, s = shape.glue
                vec[s] = vec[t]
            for c in shape.s_flag:
                vec[c] += Fraction(rng.randint(-3, 3))
            rows.append(tuple(vec))
        space = Subspace.from_spanning(ambient_dim, rows)
        # the profile stays on the space, so the next slot reuses it
        if block_profile(split, space).inside_first.dim == kernel.dim:
            return space
    raise GenerationError(f"{step}: every draw met W1 beyond the kernel in {_STEP_TRIES} tries")


def _build_series(profiles: _Profiles, index: int, root: random.Random) -> LimitLinearSeries:
    """The series realizing profile ``index``, from streams split off ``root``.

    One 64-bit stream for the kernel flag and one per ladder index, all
    split from ``root``, so any failure replays exactly. Raises
    GenerationError naming the step whose budget ran out.
    """
    model, shapes = profiles.model, profiles.shapes
    mobile = profiles[index]
    flag_rng = random.Random(root.getrandbits(64))
    rngs = [random.Random(root.getrandbits(64)) for _ in shapes]
    flags = _kernel_flag(profiles, mobile, flag_rng)
    spaces = [_first_space(model, shapes[0], flags[0], mobile[0], rngs[0])]
    for pos in range(1, len(shapes)):
        nxt = _next_space(model, shapes[pos], pos, mobile[pos], flags[pos], spaces[-1], rngs[pos])
        spaces.append(nxt)
    return LimitLinearSeries(model, profiles.r, profiles.ladder, tuple(spaces))


def random_exact_lls(d: int, r: int, delta: Sequence[int], seed: int) -> LimitLinearSeries:
    """A seeded random exact minimal series of degree d and rank r.

    Requires 0 <= r <= d; the ladder must not have more non-integer indices
    than the mobile budget r + 1 allows, or no exact minimal series exists
    and the generator reports that. The profile is drawn uniformly by its
    rank in lex order (``randrange`` makes the draw that ``choice`` makes on
    the list of all profiles) and then built.
    """
    if not 0 <= r <= d:
        raise ValueError(f"rank must satisfy 0 <= r <= d, got r={r}, d={d}")
    profiles = _Profiles(d, r, delta)
    if not profiles.total:
        raise GenerationError(
            f"no exact minimal series of degree {d}, rank {r} exists on the"
            f" ladder of delta={tuple(delta)}: every mobile-dimension profile"
            " violates the section-space flag caps"
        )
    root = random.Random((int(seed) * 0x9E3779B1) & (2**64 - 1))
    index = root.randrange(profiles.total)
    try:
        return _build_series(profiles, index, root)
    except GenerationError as exc:
        raise GenerationError(
            f"d={d}, r={r}, delta={tuple(delta)}, seed {seed}: drawn profile {index} of"
            f" {profiles.total}, mobile dimensions {profiles[index]}: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# padding and corruption


def pad_with_trivial_slots(
    g: LimitLinearSeries, new_delta: Sequence[int], seed: int
) -> LimitLinearSeries:
    """Exact but non-minimal enlargement of an exact series.

    New non-integer slots are filled with the outgoing orbit limit of their
    left neighbour, a split space carrying no mobile dimension; the original
    slots embed order-preservingly at seeded random positions of each gap.
    Exactness is preserved, and minimal reduction undoes the padding.
    The new counts are checked as :func:`build_delta` checks them (one
    positive int per gap, else TypeError or ValueError), and none may be
    smaller than the old one.
    """
    new_steps = check_steps(g.model.d, new_delta)
    if any(n < o for n, o in zip(new_steps, g.delta.steps)):
        raise ValueError("padding cannot remove subdivision steps")
    if not check_exact(g).passed:
        raise ValueError("only exact series can be padded while staying exact")
    rng = random.Random(seed)
    ladder = build_delta(g.model.d, new_steps)
    split = g.model.split

    # one sample of kept slots per gap, drawn in gap order; the old spaces
    # are used up in ladder order
    originals = iter(g.spaces)
    spaces = [next(originals)]
    for old, new in zip(g.delta.steps, new_steps):
        kept = set(rng.sample(range(new - 1), old - 1))
        for slot in range(new - 1):
            if slot in kept:
                spaces.append(next(originals))
            else:
                spaces.append(limit(split, spaces[-1], Direction.INFINITY))
        spaces.append(next(originals))
    return LimitLinearSeries(g.model, g.rank, ladder, tuple(spaces))


def corrupt_exactness(g: LimitLinearSeries, seed: int) -> LimitLinearSeries:
    """A compatible but non-exact neighbour of an exact series.

    Tries, in seeded random order: collapsing a moving non-integer slot to
    its outgoing limit; replacing the first space by first-block directions
    only; replacing the last space by second-block directions only. Raises
    when the series admits none of these (e.g. rank equal to degree, where
    every slot is the full section space).
    """
    if not check_exact(g).passed:
        raise ValueError("corruption starts from an exact series")
    rng = random.Random(seed)
    model = g.model
    split = model.split
    data = numerical_data(g)

    # each candidate carries the coordinates of its room: the section
    # space's flag on the block that replaces the slot
    candidates: list[tuple[str, Fraction, tuple[int, ...]]] = []
    for i, m in zip(g.delta.indices, data.mobile):
        if i.denominator != 1 and m > 0:
            candidates.append(("collapse", i, ()))
    if len(g.delta) > 1:
        first = g.delta.indices[0]
        p0, q0, m0 = data.at(first)
        t_room = section_shape(model, first).t_flag
        if m0 > 0 and q0 + m0 <= len(t_room):
            candidates.append(("first-block-only", first, t_room))
        last = g.delta.indices[-1]
        pd, qd, md = data.at(last)
        s_room = section_shape(model, last).s_flag
        if md > 0 and pd + md <= len(s_room):
            candidates.append(("second-block-only", last, s_room))
    rng.shuffle(candidates)

    for strategy, i, room_coords in candidates:
        spaces = list(g.spaces)
        pos = g.delta.position(i)
        if strategy == "collapse":
            spaces[pos] = limit(split, g.space_at(i), Direction.INFINITY)
        else:
            block = 1 if strategy == "first-block-only" else 2
            inside = embed_block(split, meet_block(split, g.space_at(i), block), block)
            room = _unit_rows(model.ambient_dim, room_coords)
            step = f"the {strategy} corruption"
            added = tuple(_complement_vectors(room, inside, g.rank + 1 - inside.dim, rng, step))
            spaces[pos] = Subspace.from_spanning(model.ambient_dim, inside.rows + added)
        candidate = LimitLinearSeries(model, g.rank, g.delta, tuple(spaces))
        if (
            check_compatible(candidate).passed
            and not check_exact(candidate).passed
            and not membership_failures(candidate)
        ):
            return candidate
    raise GenerationError(
        "series admits no compatible non-exact corruption"
        " (every slot may be forced, e.g. when rank equals degree)"
    )
