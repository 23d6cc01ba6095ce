"""`classify_n2._chain_normalize` against the frame-step chain reduction it
replaced, kept here as the reference: every greedy move and telescoping
shear is its own `Frame.step_cols` on the table.  The two must agree on
the pairs and on the frame they leave, tensor and total, on the chain
families of the corpus and on random skew X_2-blocks."""

import copy
import random
from fractions import Fraction

from solvlie import catalog, labels
from solvlie.catalog import scramble_tensor
from solvlie.classify_n2 import (
    _assert_chain_clean,
    _case1_shape,
    _case2_shape,
    _chain_normalize,
)
from solvlie.harness import corpus_labels
from solvlie.labels import ClassLabel
from solvlie.liealg import Frame, StructureTensor, derived_ideal_t, standard_basis
from solvlie.scalars import QuadExt, exdiv

CHAIN_FAMILIES = (labels.G5P2K_2, labels.G6P2K_2_1, labels.G6P2K_2_2, labels.AFFR_PLUS_HEIS)


def reference_chain_normalize(pipe: Frame, anchor: int):
    """The greedy chain reduction with one frame step per move."""
    block = list(range(anchor + 1, pipe.n))
    remaining = list(block)
    chains: list[tuple[int, list[int]]] = []  # (head index, chain vertices)

    head = anchor
    while True:
        chain: list[int] = []
        current = head
        while True:
            row = pipe.row(current)
            nxt = next((r for r in remaining if r in row and row[r][1] != 0), None)
            if nxt is None:
                break
            val = row[nxt][1]
            if val != 1:
                pipe.step_cols({nxt: {nxt: exdiv(1, val)}})
            pipe.step_cols({
                k: {k: 1, nxt: -row[k][1]}
                for k in remaining
                if k != nxt and k in row and row[k][1] != 0
            })
            chain.append(nxt)
            remaining.remove(nxt)
            current = nxt
        if chain:
            chains.append((head, chain))
        rest = set(remaining)
        hot = {
            x
            for i, j in pipe.t.brackets
            if i in rest and j in rest and pipe.bracket(i, j)[1] != 0
            for x in (i, j)
        }
        seed = next((i for i in remaining if i in hot), None)
        if seed is None:
            break
        remaining.remove(seed)
        head = seed

    anchored = None
    pairs: list[tuple[int, int]] = []
    for head_idx, chain in chains:
        partner, chain_pairs = reference_telescope(pipe, [head_idx] + chain, pinned=(head_idx == anchor))
        if head_idx == anchor:
            anchored = partner
        pairs.extend(chain_pairs)
    leftover = [i for i in block if all(i not in p for p in pairs) and i != anchored]
    _assert_chain_clean(pipe, anchor, block, anchored, pairs)
    return anchored, pairs, leftover


def reference_telescope(pipe: Frame, verts: list, pinned: bool):
    """Decouple a path of unit skew edges into disjoint pairs, one frame
    step per shear, from the far end toward the head."""
    L = len(verts)
    for pos in range(L - 3, -1, -2):
        v, w = verts[pos], verts[pos + 2]
        pipe.step_cols({v: {v: 1, w: 1}})
    if L % 2:
        return None, [(verts[i], verts[i + 1]) for i in range(1, L - 1, 2)]
    partner = verts[1] if pinned else None
    first = 2 if pinned else 0
    return partner, [(verts[i], verts[i + 1]) for i in range(first, L - 1, 2)]


def agree(pipe: Frame, anchor: int):
    """Run the reduction on `pipe` and the reference on a copy; return the
    result after asserting that results, tensors and totals are identical."""
    ref = copy.deepcopy(pipe)
    got = _chain_normalize(pipe, anchor)
    assert got == reference_chain_normalize(ref, anchor)
    assert pipe.t == ref.t
    assert pipe.total == ref.total
    return got


def frame_before_chain(tensor):
    """The frame of a chain-family input as `_singular_action_pipeline`
    hands it to the chain reduction, and the anchor."""
    pipe = Frame(tensor, derived_ideal_t(tensor))
    pipe.clear_adjoints(range(2, pipe.n), (2, 3))
    a3 = pipe.adjoint(2)
    tr = a3.trace()
    if tr != 0:
        _case1_shape(pipe, a3, tr)
        return pipe, 2
    _case2_shape(pipe, a3)
    return pipe, 3


def test_corpus_chain_labels_under_scrambles():
    rng = random.Random(25)
    seen = set()
    for lab in corpus_labels():
        if lab.family not in CHAIN_FAMILIES:
            continue
        for _ in range(4):
            tensor = scramble_tensor(catalog.build_tensor(lab), rng.random())[0]
            anchored, pairs, _ = agree(*frame_before_chain(tensor))
            seen.add((lab.family, anchored is not None, len(pairs)))
    assert {fam for fam, _, _ in seen} == set(CHAIN_FAMILIES)
    assert any(p >= 2 for _, _, p in seen)


def _scalar(rng, field: str):
    num, den = rng.randint(-4, 4), rng.randint(1, 3)
    if field == "int":
        return num
    if field == "rat":
        return Fraction(num, den)
    return QuadExt.make(Fraction(num, den), rng.randint(-2, 2), 2)


def _nonzero(rng, field: str):
    while True:
        x = _scalar(rng, field)
        if x != 0:
            return x


def random_chain_frame(rng, field: str, anchored: bool):
    """A frame whose X_2-components on {anchor} + block form a direct sum
    of skew blocks on random index groups, each a path of random length
    (odd or even) or a dense random skew matrix; the anchor joins a group
    when `anchored`.  X_1-components and adjoint brackets ride along, so
    the whole table is transformed.  The table need not be a Lie
    algebra."""
    anchor = rng.choice((2, 3))
    n = anchor + 1 + rng.randint(2, 9)
    verts = list(range(anchor + 1, n))
    rng.shuffle(verts)
    groups, pos = [], 0
    while pos < len(verts):
        size = rng.randint(1, 5)
        groups.append(verts[pos : pos + size])
        pos += size
    if anchored:
        groups[0].insert(rng.randint(0, len(groups[0])), anchor)
    table = {}

    def put(i, j, x2, x1=0):
        vec = [0] * n
        vec[0], vec[1] = x1, x2
        table[(i, j) if i < j else (j, i)] = [-y for y in vec] if i > j else vec

    for group in groups:
        if rng.random() < 0.5:
            for a, b in zip(group, group[1:]):
                put(a, b, _nonzero(rng, field), _scalar(rng, field))
        else:
            for p, a in enumerate(group):
                for b in group[p + 1 :]:
                    if rng.random() < 0.7:
                        put(a, b, _scalar(rng, field), _scalar(rng, field))
    for i in range(2, n):
        if rng.random() < 0.3:
            put(i, rng.choice((0, 1)), _scalar(rng, field), _scalar(rng, field))
    tensor = StructureTensor(n, {ij: v for ij, v in table.items() if any(v)})
    return Frame(tensor, standard_basis(n)[:2]), anchor


def test_random_skew_blocks_over_three_fields():
    rng = random.Random(2025)
    for field in ("int", "rat", "quad"):
        seen = set()
        for trial in range(80):
            anchored = trial % 2 == 0
            got, pairs, leftover = agree(*random_chain_frame(rng, field, anchored))
            seen.add((anchored, got is not None, len(pairs) >= 2, bool(leftover)))
        # an anchor with an odd chain keeps its partner, with an even one
        # it is freed; blocks split into several pairs and leave vectors over
        assert (True, True, True, True) in seen, field
        assert (True, False, True, True) in seen, field
        assert (False, False, True, True) in seen, field


def test_chain_reduction_is_one_frame_step(monkeypatch):
    # G6p2k_2_1 with k = 2: the anchored pair and three more
    tensor = scramble_tensor(catalog.build_tensor(ClassLabel(labels.G6P2K_2_1, abelian_ext=1, k=2)), 7)[0]
    pipe, anchor = frame_before_chain(tensor)
    steps = []
    real = Frame.step_cols
    monkeypatch.setattr(Frame, "step_cols", lambda fr, repl: steps.append(repl) or real(fr, repl))
    anchored, pairs, _ = _chain_normalize(pipe, anchor)
    assert anchored is not None and len(pairs) == 3
    assert len(steps) <= 1
