"""Property-based tests (hypothesis) for core data structures and
cross-component invariants:

- arithmetic/flag algebra of the emulator;
- register-view write semantics;
- generated programs always validate, assemble round-trip, execute
  fault-free, and stay inside the sandbox;
- contract traces are deterministic functions of (program, input);
- the speculative CPU never changes architectural results relative to the
  functional emulator, for arbitrary generated programs and inputs;
- cache LRU invariants and trace algebra.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.isa.assembler import parse_program, render_program
from repro.isa.instruction_set import instruction_subset
from repro.emulator.machine import Emulator
from repro.emulator.semantics import execute
from repro.emulator.state import ArchState, SandboxLayout
from repro.contracts import get_contract
from repro.core.analyzer import RelationalAnalyzer
from repro.core.config import GeneratorConfig
from repro.core.generator import TestCaseGenerator
from repro.core.input_gen import InputGenerator
from repro.traces import HTrace, merge_hardware_traces
from repro.uarch.cache import L1DCache
from repro.uarch.config import skylake
from repro.uarch.cpu import SpeculativeCPU

U64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
U8 = st.integers(min_value=0, max_value=255)

_LAYOUT = SandboxLayout()


def _parse_line(line):
    from repro.isa.assembler import parse_instruction

    return parse_instruction(line)


# -- emulator algebra ---------------------------------------------------------


class TestArithmeticProperties:
    @given(a=U64, b=U64)
    def test_add_matches_modular_arithmetic(self, a, b):
        state = ArchState()
        state.write_register("RAX", a)
        state.write_register("RBX", b)
        execute(_parse_line("ADD RAX, RBX"), state)
        assert state.read_register("RAX") == (a + b) % (1 << 64)
        assert state.read_flag("CF") == (a + b >= 1 << 64)
        assert state.read_flag("ZF") == ((a + b) % (1 << 64) == 0)

    @given(a=U64, b=U64)
    def test_sub_borrow_is_unsigned_less_than(self, a, b):
        state = ArchState()
        state.write_register("RAX", a)
        state.write_register("RBX", b)
        execute(_parse_line("SUB RAX, RBX"), state)
        assert state.read_flag("CF") == (a < b)
        assert state.read_register("RAX") == (a - b) % (1 << 64)

    @given(a=U64, b=U64)
    def test_add_then_sub_roundtrips(self, a, b):
        state = ArchState()
        state.write_register("RAX", a)
        state.write_register("RBX", b)
        execute(_parse_line("ADD RAX, RBX"), state)
        execute(_parse_line("SUB RAX, RBX"), state)
        assert state.read_register("RAX") == a

    @given(a=U64)
    def test_neg_is_involution(self, a):
        state = ArchState()
        state.write_register("RAX", a)
        execute(_parse_line("NEG RAX"), state)
        execute(_parse_line("NEG RAX"), state)
        assert state.read_register("RAX") == a

    @given(a=U64)
    def test_not_is_involution(self, a):
        state = ArchState()
        state.write_register("RAX", a)
        execute(_parse_line("NOT RAX"), state)
        execute(_parse_line("NOT RAX"), state)
        assert state.read_register("RAX") == a

    @given(a=U64, b=U64)
    def test_xor_self_inverse(self, a, b):
        state = ArchState()
        state.write_register("RAX", a)
        state.write_register("RBX", b)
        execute(_parse_line("XOR RAX, RBX"), state)
        execute(_parse_line("XOR RAX, RBX"), state)
        assert state.read_register("RAX") == a

    @given(a=U64, b=U64)
    def test_cmp_equals_sub_flags_without_write(self, a, b):
        state_cmp = ArchState()
        state_sub = ArchState()
        for state in (state_cmp, state_sub):
            state.write_register("RAX", a)
            state.write_register("RBX", b)
        execute(_parse_line("CMP RAX, RBX"), state_cmp)
        execute(_parse_line("SUB RAX, RBX"), state_sub)
        assert state_cmp.flags == state_sub.flags
        assert state_cmp.read_register("RAX") == a

    @given(dividend=U64, divisor=st.integers(min_value=1, max_value=(1 << 64) - 1))
    def test_div_quotient_remainder_identity(self, dividend, divisor):
        state = ArchState()
        state.write_register("RAX", dividend)
        state.write_register("RDX", 0)
        state.write_register("RBX", divisor)
        execute(_parse_line("DIV RBX"), state)
        quotient = state.read_register("RAX")
        remainder = state.read_register("RDX")
        assert quotient * divisor + remainder == dividend
        assert remainder < divisor


class TestRegisterViewProperties:
    @given(value=U64, low=st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_32bit_write_zero_extends(self, value, low):
        state = ArchState()
        state.write_register("RAX", value)
        state.write_register("EAX", low)
        assert state.read_register("RAX") == low

    @given(value=U64, low=U8)
    def test_8bit_write_merges(self, value, low):
        state = ArchState()
        state.write_register("RAX", value)
        state.write_register("AL", low)
        assert state.read_register("RAX") == (value & ~0xFF) | low

    @given(value=U64)
    def test_views_are_projections(self, value):
        state = ArchState()
        state.write_register("RAX", value)
        assert state.read_register("EAX") == value & 0xFFFFFFFF
        assert state.read_register("AX") == value & 0xFFFF
        assert state.read_register("AL") == value & 0xFF


# -- generator / assembler / emulator integration ------------------------------

_SUBSET = instruction_subset(["AR", "MEM", "VAR", "CB"])


@st.composite
def generated_programs(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    instructions = draw(st.integers(min_value=2, max_value=16))
    blocks = draw(st.integers(min_value=1, max_value=4))
    memory = draw(st.integers(min_value=0, max_value=4))
    generator = TestCaseGenerator(
        _SUBSET,
        GeneratorConfig(
            instructions_per_test=instructions,
            basic_blocks=blocks,
            memory_accesses=memory,
        ),
        _LAYOUT,
        seed=seed,
    )
    return generator.generate()


@st.composite
def random_inputs(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    entropy = draw(st.sampled_from([1, 2, 4, 8]))
    return InputGenerator(
        seed=seed, entropy_bits=entropy, layout=_LAYOUT
    ).generate_one()


class TestGeneratedProgramProperties:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(program=generated_programs())
    def test_programs_validate_and_roundtrip(self, program):
        program.validate_dag()
        text = render_program(program)
        reparsed = parse_program(text)
        assert render_program(reparsed) == text

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(program=generated_programs(), input_data=random_inputs())
    def test_execution_never_faults_and_stays_sandboxed(
        self, program, input_data
    ):
        emulator = Emulator(program, _LAYOUT)
        for result in emulator.run(input_data):
            for access in result.mem_accesses:
                assert _LAYOUT.contains(access.address, access.size)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(program=generated_programs(), input_data=random_inputs())
    def test_contract_traces_deterministic(self, program, input_data):
        contract = get_contract("CT-COND-BPAS")
        first = contract.collect_trace(program, input_data, _LAYOUT)
        second = contract.collect_trace(program, input_data, _LAYOUT)
        assert first == second

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(program=generated_programs(), input_data=random_inputs())
    def test_speculation_preserves_architectural_state(
        self, program, input_data
    ):
        """The central soundness invariant of the CPU model: all
        speculation rolls back; final state equals the emulator's."""
        emulator = Emulator(program, _LAYOUT)
        emulator.run(input_data)
        cpu = SpeculativeCPU(skylake(), _LAYOUT)
        cpu.run(program.linearize(), input_data)
        assert cpu.state.registers == emulator.state.registers
        assert cpu.state.flags == emulator.state.flags
        assert bytes(cpu.state.memory) == bytes(emulator.state.memory)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(program=generated_programs(), input_data=random_inputs())
    def test_seq_trace_matches_architectural_execution(
        self, program, input_data
    ):
        """A CT-SEQ contract trace is exactly the architectural pc +
        address stream."""
        contract = get_contract("CT-SEQ")
        trace = contract.collect_trace(program, input_data, _LAYOUT)
        emulator = Emulator(program, _LAYOUT)
        observations = []
        for result in emulator.run(input_data):
            observations.append(("pc", result.pc))
            for access in result.mem_accesses:
                tag = "st" if access.is_write else "ld"
                observations.append((tag, access.address))
        assert trace.observations == tuple(observations)


# -- cache and trace algebra ----------------------------------------------------


class TestCacheProperties:
    @given(addresses=st.lists(U64, min_size=1, max_size=200))
    def test_most_recent_access_always_cached(self, addresses):
        cache = L1DCache()
        for address in addresses:
            cache.access(address)
            assert cache.contains(address)

    @given(addresses=st.lists(U64, max_size=200))
    def test_ways_never_exceeded(self, addresses):
        cache = L1DCache(num_sets=4, ways=3)
        for address in addresses:
            cache.access(address)
        assert all(len(lines) <= 3 for lines in cache.snapshot_tags())

    @given(addresses=st.lists(st.integers(min_value=0, max_value=8191),
                              max_size=64))
    def test_probe_is_exactly_touched_sets(self, addresses):
        cache = L1DCache()
        cache.prime()
        for address in addresses:
            cache.access(0x10000 + address)
        expected = {cache.set_index(0x10000 + a) for a in addresses}
        assert cache.probe() == expected


class _FullRebuildCache:
    """The cache's original Prime+Probe: prime rebuilds every set and
    probe counts attacker lines in every set. The oracle for the
    touched-set bookkeeping of :class:`L1DCache`."""

    def __init__(self, num_sets, ways, line_size):
        self.num_sets, self.ways, self.line_size = num_sets, ways, line_size
        self.sets = [[] for _ in range(num_sets)]

    def _locate(self, address):
        return (address // self.line_size) % self.num_sets, address // self.line_size

    def access(self, address):
        index, tag = self._locate(address)
        lines = self.sets[index]
        if tag in lines:
            lines.remove(tag)
            lines.insert(0, tag)
            return True
        lines.insert(0, tag)
        if len(lines) > self.ways:
            lines.pop()
        return False

    def contains(self, address):
        index, tag = self._locate(address)
        return tag in self.sets[index]

    def flush_line(self, address):
        index, tag = self._locate(address)
        if tag in self.sets[index]:
            self.sets[index].remove(tag)

    def flush_all(self):
        self.sets = [[] for _ in range(self.num_sets)]

    def prime(self):
        self.sets = [
            [-(1 + index * self.ways + way) for way in range(self.ways)]
            for index in range(self.num_sets)
        ]

    def probe(self):
        return {
            index
            for index, lines in enumerate(self.sets)
            if sum(1 for tag in lines if tag < 0) < self.ways
        }

    def evict_region(self, base, size):
        address = base - base % self.line_size
        while address < base + size:
            self.flush_line(address)
            address += self.line_size

    def cached_lines(self, base, size):
        first_line = base // self.line_size
        address = base - base % self.line_size
        cached = set()
        while address < base + size:
            if self.contains(address):
                cached.add(address // self.line_size - first_line)
            address += self.line_size
        return cached

    def snapshot_tags(self):
        return [list(lines) for lines in self.sets]


_GEOMETRIES = [(1, 2, 64), (2, 1, 64), (4, 3, 64), (8, 4, 32), (64, 8, 64)]


@st.composite
def cache_scenarios(draw):
    """A geometry and a sequence of cache operations on it. Addresses
    span a few times the cache's capacity, so lines collide, get evicted
    and get reloaded; negative ones reach the attacker tags, which a
    victim never does but the bookkeeping must survive too."""
    num_sets, ways, line_size = geometry = draw(st.sampled_from(_GEOMETRIES))
    lines = num_sets * ways
    address = st.builds(
        lambda line, offset: line * line_size + offset,
        st.integers(-lines - 1, 4 * lines),
        st.integers(0, line_size - 1),
    )
    ops = draw(st.lists(st.one_of(
        st.tuples(st.sampled_from(["access", "flush_line", "contains"]), address),
        st.tuples(st.sampled_from(["evict_region", "cached_lines"]), address,
                  st.integers(0, 2 * lines * line_size)),
        st.tuples(st.sampled_from(["flush_all", "prime", "probe"])),
    ), max_size=80))
    return geometry, ops


class TestTouchedSetPrimeProbe:
    @settings(max_examples=100, deadline=None)
    @given(scenario=cache_scenarios())
    # one example per way a set changes outside a victim miss: never
    # primed, a hit on an attacker line (reorders the set), a flush that
    # removes an attacker line, a full flush
    @example(scenario=((4, 3, 64), [("probe",)]))
    @example(scenario=((1, 2, 64), [("prime",), ("access", -128), ("prime",)]))
    @example(scenario=((1, 2, 64), [("prime",), ("flush_line", -64), ("probe",)]))
    @example(scenario=((4, 3, 64), [("prime",), ("flush_all",), ("prime",)]))
    # regions at their edges: an unaligned base with size 0 still
    # covers its own line, as does size 1, and a region may straddle 0
    @example(scenario=((4, 3, 64), [
        ("access", 0x10040), ("cached_lines", 0x10041, 0),
        ("evict_region", 0x10041, 0), ("cached_lines", 0x10040, 64),
    ]))
    @example(scenario=((4, 3, 64), [
        ("access", 0x10040), ("cached_lines", 0x1007F, 1),
        ("evict_region", 0x1007F, 1), ("cached_lines", 0x10040, 64),
    ]))
    @example(scenario=((4, 3, 64), [
        ("access", -64), ("access", 0), ("access", 64),
        ("cached_lines", -100, 200), ("evict_region", -100, 200),
        ("cached_lines", -128, 256), ("probe",),
    ]))
    # the region scan at its edges: a primed attacker tag held outside
    # its home set is neither a region line nor evicted with the region,
    # and eviction leaves a line outside the region that shares the set
    @example(scenario=((2, 1, 64), [("prime",), ("cached_lines", -64, 1)]))
    @example(scenario=((2, 1, 64), [("prime",), ("flush_line", -64)]))
    @example(scenario=((4, 3, 64), [
        ("access", 0), ("access", 256), ("evict_region", 0, 64),
        ("cached_lines", 0, 512),
    ]))
    def test_matches_full_rebuild(self, scenario):
        geometry, ops = scenario
        cache = L1DCache(*geometry)
        oracle = _FullRebuildCache(*geometry)
        for op, *args in ops:
            assert getattr(cache, op)(*args) == getattr(oracle, op)(*args), op
            assert cache.snapshot_tags() == oracle.snapshot_tags(), op

    @given(addresses=st.lists(st.integers(0, 8191), min_size=1, max_size=32))
    def test_held_probe_survives_prime(self, addresses):
        cache = L1DCache()
        cache.prime()
        for address in addresses:
            cache.access(0x10000 + address)
        held = cache.probe()
        expected = set(held)
        cache.prime()
        assert held == expected
        assert cache.probe() == set()


class TestTraceAlgebra:
    @given(a=st.frozensets(st.integers(0, 63)), b=st.frozensets(st.integers(0, 63)))
    def test_union_commutative_and_monotone(self, a, b):
        ta, tb = HTrace(a), HTrace(b)
        assert ta.union(tb).signals == tb.union(ta).signals
        assert ta.issubset(ta.union(tb))

    @given(sets=st.lists(st.frozensets(st.integers(0, 63)), min_size=1, max_size=5))
    def test_merge_is_total_union(self, sets):
        merged = merge_hardware_traces([HTrace(s) for s in sets])
        assert merged.signals == frozenset().union(*sets)

    @given(a=st.frozensets(st.integers(0, 63)), b=st.frozensets(st.integers(0, 63)))
    def test_subset_equivalence_symmetric(self, a, b):
        analyzer = RelationalAnalyzer("subset")
        assert analyzer.equivalent(HTrace(a), HTrace(b)) == analyzer.equivalent(
            HTrace(b), HTrace(a)
        )

    @given(a=st.frozensets(st.integers(0, 63)))
    def test_equivalence_reflexive(self, a):
        for mode in ("subset", "strict"):
            analyzer = RelationalAnalyzer(mode)
            assert analyzer.equivalent(HTrace(a), HTrace(a))

    @given(signals=st.frozensets(st.integers(0, 63)))
    def test_bitmap_roundtrip(self, signals):
        trace = HTrace(signals)
        bitmap = trace.bitmap()
        assert len(bitmap) == 64
        assert {i for i, bit in enumerate(bitmap) if bit == "1"} == set(signals)


class TestInputGeneratorProperties:
    @given(seed=st.integers(0, 100_000), entropy=st.integers(1, 20))
    def test_values_respect_entropy_mask(self, seed, entropy):
        generator = InputGenerator(seed=seed, entropy_bits=entropy, layout=_LAYOUT)
        input_data = generator.generate_one()
        bound = 1 << (entropy + 6)
        for value in input_data.registers.values():
            assert value % 64 == 0 and value < bound

    @given(seed=st.integers(0, 100_000))
    def test_same_seed_same_inputs(self, seed):
        a = InputGenerator(seed=seed, layout=_LAYOUT).generate(3)
        b = InputGenerator(seed=seed, layout=_LAYOUT).generate(3)
        assert [x.fingerprint() for x in a] == [x.fingerprint() for x in b]
