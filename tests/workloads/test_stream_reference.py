"""The per-instruction stream path against its straightforward reference.

``InstrStream.__next__`` and ``GranularityDist.sample`` are written for
speed.  The reference below is the plain form they replaced, kept here
verbatim: the fast path must emit the same ``CoreInstr`` sequence and
leave the RNG in the same state, draw for draw, on every profile.
"""

import json
import random

import pytest

from repro.core.stream import CoreInstr
from repro.noc.traffic import GranularityDist
from repro.sim.snapshot import SnapshotDecoder, SnapshotEncoder
from repro.workloads import all_profiles, get_profile
from repro.workloads.base import InstrStream

N_INSTRS = 2000
SEEDS = (0, 1, 7)
#: (gang_size, gang_rank): a private stream, and rank 3 of an 8-thread gang
GANGS = ((1, 0), (8, 3))


def _reference_sample(dist, rng):
    sizes = [s for s, _ in dist.weights]
    weights = [w for _, w in dist.weights]
    return rng.choices(sizes, weights=weights, k=1)[0]


def reference_stream(self):
    """The keyword-``CoreInstr``, ``rng.choices`` form of ``__next__``."""
    while True:
        if self.emitted >= self.total:
            return
        if not self.started:
            self._start()
        self.emitted += 1
        profile = self.profile
        rng = self.rng
        self.pc = (self.pc + 1) % self.code_pcs
        pc = self.pc
        if self.pending_stores:
            self.pending_stores -= 1
            size = _reference_sample(profile.granularity, rng)
            yield CoreInstr("store", addr=self._shared_addr(size),
                            size=size, pc=pc)
            continue
        draw = rng.random()
        p_mem = profile.mem_ratio
        p_branch = p_mem + profile.branch_ratio
        p_mul = p_branch + profile.mul_ratio
        if draw < p_mem:
            size = _reference_sample(profile.granularity, rng)
            is_write = rng.random() < 0.25
            kind = "store" if is_write else "load"
            mem_draw = rng.random()
            if mem_draw < profile.spm_fraction:
                addr = self.spm_base + rng.randrange(
                    max(1, self.spm_bytes - 256 - size))
            elif mem_draw < profile.spm_fraction + profile.uncached_fraction:
                if rng.random() < profile.shared_uncached_fraction:
                    addr = self._shared_addr(size)
                    if is_write:
                        self.pending_stores = 1 + rng.randrange(3)
                else:
                    if rng.random() < profile.streaming_locality:
                        self.stream_ptr += size
                    else:
                        self.stream_ptr += size * rng.randrange(2, 64)
                    addr = self.stream_ptr
            else:
                addr = self.heap + rng.randrange(profile.working_set_bytes)
            yield CoreInstr(kind, addr=addr, size=size, pc=pc)
            continue
        if draw < p_branch:
            taken = rng.random() < profile.branch_taken_ratio
            yield CoreInstr("branch", pc=pc, taken=taken)
            continue
        if draw < p_mul:
            yield CoreInstr("mul", pc=pc)
            continue
        yield CoreInstr("alu", pc=pc)


def _twin_streams(profile, seed, gang_size, gang_rank):
    return [profile.stream(N_INSTRS, random.Random(seed), thread_id=2,
                           gang_size=gang_size, gang_rank=gang_rank)
            for _ in range(2)]


class TestInstrStreamReference:
    @pytest.mark.parametrize("gang", GANGS, ids=lambda g: f"gang{g[0]}r{g[1]}")
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", sorted(all_profiles()))
    def test_same_instrs_and_rng_state(self, name, seed, gang):
        fast, ref = _twin_streams(get_profile(name), seed, *gang)
        got = list(fast)
        want = list(reference_stream(ref))
        assert len(got) == N_INSTRS
        assert got == want
        assert all(type(instr) is CoreInstr for instr in got)
        assert fast.rng.getstate() == ref.rng.getstate()
        positional = [k for k in vars(fast) if k != "rng"]
        assert ([getattr(fast, k) for k in positional]
                == [getattr(ref, k) for k in positional])


class TestGranularitySample:
    @pytest.mark.parametrize("name", ["kmp", "terasort", "splash2.ocean"])
    def test_matches_random_choices(self, name):
        dist = get_profile(name).granularity
        fast, ref = random.Random(11), random.Random(11)
        got = [dist.sample(fast) for _ in range(10_000)]
        want = [_reference_sample(dist, ref) for _ in range(10_000)]
        assert got == want
        assert fast.getstate() == ref.getstate()

    def test_integer_weights(self):
        dist = GranularityDist(((1, 3), (8, 1), (64, 2)))
        fast, ref = random.Random(5), random.Random(5)
        assert ([dist.sample(fast) for _ in range(1000)]
                == [_reference_sample(dist, ref) for _ in range(1000)])

    def test_table_stays_out_of_identity(self):
        a = GranularityDist(((1, 0.5), (4, 0.5)))
        b = GranularityDist(((1, 0.5), (4, 0.5)))
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "GranularityDist(weights=((1, 0.5), (4, 0.5)))"


class TestMidStreamCheckpoint:
    def test_round_trip_resumes_draw_for_draw(self):
        rng = random.Random(3)
        stream = get_profile("kmp").stream(N_INSTRS, rng, thread_id=1,
                                           gang_size=4, gang_rank=1)
        head = [next(stream) for _ in range(N_INSTRS // 2)]
        assert len(head) == N_INSTRS // 2

        encoder = SnapshotEncoder({}, rng_names={id(rng): "kmp.1"})
        body = json.loads(json.dumps(encoder.encode(stream)))
        objects = json.loads(json.dumps(encoder.objects))
        dist_fields = [rec["f"] for rec in objects.values()
                       if rec["c"].endswith("GranularityDist")]
        assert dist_fields and all(set(f) == {"weights"} for f in dist_fields)

        twin = random.Random()
        twin.setstate(rng.getstate())
        restored = SnapshotDecoder({}, objects,
                                   rng_resolver=lambda name: twin).decode(body)
        assert restored is not stream
        assert list(restored) == list(stream)
        assert twin.getstate() == rng.getstate()
