import math
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from ipaddress import IPv6Address
from random import Random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from geogossip.geometry import distances_np
from geogossip.scenario import (
    METERS_PER_DEG_LAT,
    ORIGIN_LAT,
    ORIGIN_LON,
    ChurnEvent,
    InvalidRegionError,
    NodeSpec,
    Params,
    Scenario,
    ScenarioFormatError,
    add_random_churn,
    address_for,
    dumps,
    four_node_demo,
    generate_scenario,
    load_scenario,
    loads,
    save_scenario,
)
from geogossip.simulate import Simulation


class TestParams:
    def test_defaults(self):
        assert [f.name for f in fields(Params)] == ["period_seconds"]
        assert Params().period_seconds == 15.0

    def test_derived_milliseconds(self):
        assert Params().period_ms == 15_000
        assert Simulation(four_node_demo()).stale_ms == 150_000

    @pytest.mark.parametrize("bad", [
        {"period_seconds": 0.0},
        {"period_seconds": math.inf},
        {"period_seconds": 1e306},
    ], ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()))
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            Params(**bad)


class TestValidation:
    def test_duplicate_ids_rejected(self):
        nodes = [NodeSpec(1, 0.0, 0.0, 10.0), NodeSpec(1, 1.0, 1.0, 10.0)]
        with pytest.raises(ValueError):
            Scenario(nodes=nodes, seeds=[1])

    def test_unknown_seed_rejected(self):
        with pytest.raises(ValueError):
            Scenario(nodes=[NodeSpec(1, 0.0, 0.0, 10.0)], seeds=[2])

    def test_repeated_seed_rejected(self):
        with pytest.raises(ValueError, match="seed ids must be unique"):
            replace(four_node_demo(), seeds=(1, 1))

    @pytest.mark.parametrize("bad", [
        (-1, 0.0, 0.0, 10.0),
        (1 << 64, 0.0, 0.0, 10.0),
        (1, 95.0, 0.0, 10.0),
        (1, 0.0, 180.0, 10.0),
        (1, math.nan, 0.0, 10.0),
        (1, 0.0, 0.0, -100.0),
        (1, 0.0, 0.0, math.inf),
    ], ids=["negative-id", "id-over-64-bits", "latitude-95", "longitude-180",
            "nan-latitude", "negative-radius", "infinite-radius"])
    def test_node_spec_ranges(self, bad):
        with pytest.raises(ValueError):
            NodeSpec(*bad)

    def test_churn_event_shape(self):
        with pytest.raises(ValueError):
            ChurnEvent(0, "join")
        with pytest.raises(ValueError):
            ChurnEvent(0, "leave")
        with pytest.raises(ValueError):
            ChurnEvent(0, "crash", node_id=1)
        with pytest.raises(ValueError):
            ChurnEvent(-1, "leave", node_id=1)

    def test_schedule_replayed_in_engine_order(self):
        # by round, then as listed: the leave is listed first but comes after
        # the join, and a node may leave and rejoin within one round
        nodes = [NodeSpec(1, 0.0, 0.0, 10.0)]
        churn = [ChurnEvent(2, "leave", node_id=7),
                 ChurnEvent(1, "join", node=NodeSpec(7, 0.0, 0.0, 10.0)),
                 ChurnEvent(3, "leave", node_id=1),
                 ChurnEvent(3, "join", node=NodeSpec(1, 0.0, 0.0, 10.0))]
        Scenario(nodes=nodes, seeds=[1], churn=churn)
        with pytest.raises(ValueError):
            Scenario(nodes=nodes, seeds=[1], churn=churn[:1])
        with pytest.raises(ValueError):
            Scenario(nodes=nodes, seeds=[1], churn=churn[3:] + churn[2:3])

    def test_address_is_deterministic_documentation_prefix(self):
        assert address_for(1) == IPv6Address("2001:db8::1")
        assert address_for(1) == address_for(1)
        assert address_for(1) != address_for(2)


class TestFrozenRecords:
    """A record keeps the values its checks passed for as long as it lives."""

    @pytest.mark.parametrize("record", [
        Params(),
        NodeSpec(1, 0.0, 0.0, 10.0),
        ChurnEvent(1, "leave", node_id=1),
        four_node_demo(),
    ], ids=["Params", "NodeSpec", "ChurnEvent", "Scenario"])
    def test_no_field_can_be_assigned(self, record):
        for f in fields(record):
            with pytest.raises(FrozenInstanceError):
                setattr(record, f.name, getattr(record, f.name))

    def test_the_callers_lists_are_copied(self):
        nodes = [NodeSpec(1, 0.0, 0.0, 10.0)]
        seeds = [1]
        churn = [ChurnEvent(1, "leave", node_id=1)]
        sc = Scenario(nodes=nodes, seeds=seeds, churn=churn)
        nodes.append(NodeSpec(1, 1.0, 1.0, 10.0))
        seeds.append(2)
        churn.append(ChurnEvent(2, "leave", node_id=1))
        assert sc.nodes == (NodeSpec(1, 0.0, 0.0, 10.0),)
        assert sc.seeds == (1,)
        assert sc.churn == (ChurnEvent(1, "leave", node_id=1),)

    def test_replace_checks_the_schedule_again(self):
        sc = four_node_demo()
        with pytest.raises(ValueError):
            replace(sc, churn=(ChurnEvent(1, "leave", node_id=42),))
        with pytest.raises(ValueError):
            replace(sc, churn=[ChurnEvent(0, "join", node=sc.nodes[0])])


class TestGeneration:
    def test_count_ids_and_seed(self):
        sc = generate_scenario(50, region=(1000.0, 1000.0), radius_law=100.0, rng_seed=7)
        assert len(sc.nodes) == 50
        assert sorted(n.node_id for n in sc.nodes) == list(range(1, 51))
        assert len(sc.seeds) == 1
        assert sc.seeds[0] in {n.node_id for n in sc.nodes}

    def test_reproducible(self):
        a = generate_scenario(30, region=(5000.0, 5000.0), radius_law=(50.0, 200.0), rng_seed=3)
        b = generate_scenario(30, region=(5000.0, 5000.0), radius_law=(50.0, 200.0), rng_seed=3)
        assert a == b

    def test_different_seed_differs(self):
        a = generate_scenario(30, region=(5000.0, 5000.0), radius_law=100.0, rng_seed=3)
        b = generate_scenario(30, region=(5000.0, 5000.0), radius_law=100.0, rng_seed=4)
        assert a != b

    def test_nodes_inside_region(self):
        sc = generate_scenario(200, region=(2000.0, 3000.0), radius_law=10.0, rng_seed=5)
        for n in sc.nodes:
            y = (n.latitude - ORIGIN_LAT) * METERS_PER_DEG_LAT
            x = (n.longitude - ORIGIN_LON) * METERS_PER_DEG_LAT * math.cos(
                math.radians(ORIGIN_LAT))
            assert -1e-6 <= x <= 2000.0 + 1e-6
            assert -1e-6 <= y <= 3000.0 + 1e-6

    def test_radius_laws(self):
        fixed = generate_scenario(20, region=(100.0, 100.0), radius_law=42, rng_seed=1)
        assert all(n.radius == 42.0 for n in fixed.nodes)
        rng = generate_scenario(200, region=(100.0, 100.0), radius_law=(10.0, 20.0), rng_seed=1)
        assert all(10.0 <= n.radius <= 20.0 for n in rng.nodes)
        assert len({n.radius for n in rng.nodes}) > 100

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            generate_scenario(0, region=(100.0, 100.0), radius_law=10.0, rng_seed=1)
        with pytest.raises(InvalidRegionError):
            generate_scenario(5, region=(0.0, 100.0), radius_law=10.0, rng_seed=1)
        with pytest.raises(ValueError):
            generate_scenario(5, region=(100.0, 100.0), radius_law="weird:1", rng_seed=1)
        with pytest.raises(ValueError):
            generate_scenario(5, region=(100.0, 100.0), radius_law="fixed:42", rng_seed=1)
        with pytest.raises(ValueError):
            generate_scenario(5, region=(100.0, 100.0), radius_law=-1.0, rng_seed=1)
        with pytest.raises(ValueError):
            generate_scenario(5, region=(100.0, 100.0), radius_law=(20.0, 10.0), rng_seed=1)

    def test_region_past_a_pole_rejected(self):
        # the pole lies about 3,350 km north of the origin
        with pytest.raises(InvalidRegionError):
            generate_scenario(10, region=(10_000.0, 20_000_000.0), radius_law=100.0, rng_seed=1)

    def test_region_across_the_antimeridian_wraps(self):
        # the antimeridian lies about 9,400 km east of the origin
        sc = generate_scenario(50, region=(12_000_000.0, 1000.0), radius_law=100.0, rng_seed=1)
        assert all(-180.0 <= n.longitude < 180.0 for n in sc.nodes)
        assert any(n.longitude < 0.0 for n in sc.nodes)

    def test_uniform_placement_chi_square(self):
        # split the box into a 4x4 grid; occupancy should be uniform
        from scipy.stats import chisquare

        sc = generate_scenario(3200, region=(4000.0, 4000.0), radius_law=10.0, rng_seed=9)
        cells = Counter()
        for n in sc.nodes:
            y = (n.latitude - ORIGIN_LAT) * METERS_PER_DEG_LAT
            x = (n.longitude - ORIGIN_LON) * METERS_PER_DEG_LAT * math.cos(
                math.radians(ORIGIN_LAT))
            cells[(min(int(x // 1000), 3), min(int(y // 1000), 3))] += 1
        _, p = chisquare([cells[(i, j)] for i in range(4) for j in range(4)])
        assert p > 0.01


class TestQuartetScenario:
    def test_overlap_structure(self):
        sc = four_node_demo()
        by_id = {n.node_id: n for n in sc.nodes}

        def overlaps(a, b):
            na, nb = by_id[a], by_id[b]
            d = distances_np(na.latitude, na.longitude, nb.latitude, nb.longitude)
            return d < na.radius + nb.radius

        # the big-disk node 4 overlaps everyone; 3 overlaps only 4;
        # 1 and 2 overlap each other and 4
        assert overlaps(4, 1) and overlaps(4, 2) and overlaps(4, 3)
        assert overlaps(1, 2)
        assert not overlaps(3, 1) and not overlaps(3, 2)


class TestChurnSchedule:
    def test_rate_and_balance(self):
        sc = generate_scenario(100, region=(1000.0, 1000.0), radius_law=10.0, rng_seed=2)
        sc = add_random_churn(sc, rounds=20, rate=0.01, region=(1000.0, 1000.0), radius_law=10.0)
        joins = [e for e in sc.churn if e.op == "join"]
        leaves = [e for e in sc.churn if e.op == "leave"]
        assert len(joins) == 20
        assert len(leaves) == 20
        assert {e.round for e in sc.churn} == set(range(20))

    def test_seeds_never_leave(self):
        sc = generate_scenario(20, region=(1000.0, 1000.0), radius_law=10.0, rng_seed=2)
        sc = add_random_churn(sc, rounds=50, rate=0.2, region=(1000.0, 1000.0), radius_law=10.0)
        gone = {e.node_id for e in sc.churn if e.op == "leave"}
        assert not gone & set(sc.seeds)

    def test_join_ids_fresh(self):
        sc = generate_scenario(20, region=(1000.0, 1000.0), radius_law=10.0, rng_seed=2)
        sc = add_random_churn(sc, rounds=10, rate=0.1, region=(1000.0, 1000.0), radius_law=10.0)
        joined = [e.node.node_id for e in sc.churn if e.op == "join"]
        assert len(joined) == len(set(joined))
        assert min(joined) > max(n.node_id for n in sc.nodes)

    def test_reproducible(self):
        def build():
            sc = generate_scenario(50, region=(1000.0, 1000.0), radius_law=10.0, rng_seed=6)
            return add_random_churn(sc, rounds=10, rate=0.05,
                                    region=(1000.0, 1000.0), radius_law=10.0)

        assert build() == build()

    def test_leaves_fall_on_joiners_when_no_listed_node_can_leave(self):
        # the only node is the seed: each round's leaves take that round's
        # joiners, so there is always someone to remove
        sc = Scenario(nodes=[NodeSpec(1, 59.91, 10.75, 10.0)], seeds=[1])
        sc = add_random_churn(sc, rounds=5, rate=1.0, region=(1000.0, 1000.0), radius_law=10.0)
        for r in range(5):
            events = [ev for ev in sc.churn if ev.round == r]
            joined = [ev.node.node_id for ev in events if ev.op == "join"]
            assert joined == [r + 2]
            assert [ev.node_id for ev in events if ev.op == "leave"] == joined

    @pytest.mark.parametrize("rate, region", [
        (-0.5, (1000.0, 1000.0)), (1.5, (1000.0, 1000.0)),
        (0.1, (0.0, 1000.0)), (0.1, (1000.0, -1.0)),
    ], ids=["negative-rate", "rate-over-one", "zero-width", "negative-height"])
    def test_bad_rate_or_region_rejected(self, rate, region):
        sc = generate_scenario(20, region=(1000.0, 1000.0), radius_law=10.0, rng_seed=2)
        with pytest.raises(ValueError):
            add_random_churn(sc, rounds=5, rate=rate, region=region, radius_law=10.0)


_ONE_NODE = "[nodes]\n1 0.0 0.0 5.0\n\n[seeds]\n1\n\n"
# the tunables that were Params fields, each now an unknown header key
_REMOVED_KEYS = ["c_rand", "sample_half", "c_rank", "p_far", "recent_rounds", "stale_rounds"]


class TestFileRoundTrip:
    def test_byte_identical_dump(self):
        sc = generate_scenario(40, region=(2000.0, 2000.0), radius_law=(10.0, 99.0), rng_seed=8)
        sc = add_random_churn(sc, rounds=5, rate=0.05, region=(2000.0, 2000.0),
                              radius_law=(10.0, 99.0))
        text = dumps(sc)
        assert dumps(loads(text)) == text

    def test_round_trip_equality(self):
        sc = generate_scenario(40, region=(2000.0, 2000.0), radius_law=(10.0, 99.0), rng_seed=8)
        sc = add_random_churn(sc, rounds=5, rate=0.05, region=(2000.0, 2000.0),
                              radius_law=(10.0, 99.0))
        assert loads(dumps(sc)) == sc

    def test_params_round_trip(self):
        sc = replace(four_node_demo(), params=Params(period_seconds=2.5))
        back = loads(dumps(sc))
        assert back.params == sc.params

    def test_header_holds_the_seed_and_the_period(self):
        header = dumps(four_node_demo()).split("\n\n")[0].splitlines()
        assert [line.split(" = ")[0] for line in header[1:]] == ["rng_seed", "period_seconds"]

    def test_a_header_with_the_tunables_is_refused(self):
        # the header a file carried while the six tunables were Params fields
        old = ("rng_seed = 1\nc_rand = 30\nsample_half = 15\nc_rank = 20\np_far = 0.1\n"
               "recent_rounds = 5\nperiod_seconds = 15.0\nstale_rounds = 10\n\n")
        text = dumps(four_node_demo())
        text = old + text[text.index("[nodes]"):]
        with pytest.raises(ScenarioFormatError) as err:
            loads(text)
        for key in _REMOVED_KEYS:
            assert repr(key) in str(err.value)

    def test_file_io(self, tmp_path):
        sc = four_node_demo()
        path = tmp_path / "demo.scn"
        save_scenario(sc, path)
        assert load_scenario(path) == sc

    def test_malformed_lines_rejected(self):
        with pytest.raises(ScenarioFormatError):
            loads("[nodes]\n1 2 3\n")  # missing column
        with pytest.raises(ScenarioFormatError):
            loads("[nodes]\n1 x 3 4\n")  # non-numeric
        with pytest.raises(ScenarioFormatError):
            loads("[what]\n1\n")
        with pytest.raises(ScenarioFormatError):
            loads("[churn]\n0 crash 1\n")

    @pytest.mark.parametrize("text", [
        "period_seconds = abc\n",
        "rng_seed = x\n",
        "c_rand = 0\n",
        "p_far = 7\n",
        "partner_strategy = oldest\n",
        "c_far = 3\n",
        "sample_half = 99\n",
        "period_seconds = 0\n",
        "no_such_key = 1\n",
        "period_seconds 5\n",
        "period_seconds = 7\nperiod_seconds = 30\n",
        "[bogus]\n",
        "[nodes]\n1 95.0 0.0 100.0\n",
        "[nodes]\n1 0.0 0.0 -100.0\n",
        "[churn]\n0 leave\n",
        "[churn]\n0 join 7 95.0 0.0 100.0\n",
        _ONE_NODE + "[churn]\n-1 leave 1\n",
        _ONE_NODE + "[churn]\n0 leave 2\n",
        _ONE_NODE + "[churn]\n3 join 1 0.0 0.0 5.0\n",
        _ONE_NODE + "[churn]\n0 leave 1\n1 leave 1\n",
        _ONE_NODE + "[churn]\n2 leave 1 junk\n",
        _ONE_NODE + "1\n",
    ], ids=["non-numeric-param", "non-numeric-seed", "removed-key-c-rand", "removed-key-p-far",
            "removed-key-partner-strategy", "removed-key-c-far",
            "removed-key-sample-half", "zero-period", "unknown-key",
            "header-without-equals", "repeated-key", "empty-unknown-section",
            "node-latitude-95", "node-negative-radius",
            "churn-missing-field", "joiner-latitude-95", "churn-negative-round",
            "leave-of-non-member", "join-of-live-id", "double-leave", "churn-extra-field",
            "repeated-seed"])
    def test_every_failure_is_a_format_error(self, text):
        with pytest.raises(ScenarioFormatError):
            loads(text)

    def test_non_ascii_file_is_a_format_error(self, tmp_path):
        path = tmp_path / "bad.scn"
        path.write_bytes("# caf\u00e9\n".encode("utf-8"))
        with pytest.raises(ScenarioFormatError):
            load_scenario(path)

    def test_validation_errors_wrapped(self):
        text = "[nodes]\n1 0.0 0.0 5.0\n\n[seeds]\n9\n"
        with pytest.raises(ScenarioFormatError):
            loads(text)

    def test_comments_and_blank_lines_ignored(self):
        sc = loads("# hi\nrng_seed = 3\n\n[nodes]\n# c\n1 0.0 0.0 5.0\n\n[seeds]\n1\n")
        assert sc.rng_seed == 3
        assert len(sc.nodes) == 1


# --- property tests of the file format ---------------------------------------

_ID = st.integers(0, (1 << 64) - 1)
_SPEC = st.builds(NodeSpec, _ID, st.floats(-90.0, 90.0),
                  st.floats(-180.0, 180.0, exclude_max=True), st.floats(0.0, 1e9))


_PARAMS = st.builds(Params, st.floats(0.001, 1e6))


@st.composite
def _scenarios(draw):
    nodes = draw(st.lists(_SPEC, min_size=1, max_size=8, unique_by=lambda n: n.node_id))
    ids = [n.node_id for n in nodes]
    # a scenario checks its schedule, so replay a live set: each leave
    # names a live node and each join an id that is not live
    live = set(ids)
    churn = []
    for rnd in sorted(draw(st.lists(st.integers(0, 1000), max_size=6))):
        if live and draw(st.booleans()):
            victim = draw(st.sampled_from(sorted(live)))
            live.remove(victim)
            churn.append(ChurnEvent(rnd, "leave", node_id=victim))
        else:
            joiner = draw(_SPEC.filter(lambda n: n.node_id not in live))
            live.add(joiner.node_id)
            churn.append(ChurnEvent(rnd, "join", node=joiner))
    return Scenario(nodes=nodes, seeds=draw(st.lists(st.sampled_from(ids), max_size=3, unique=True)),
                    params=draw(_PARAMS), churn=churn, rng_seed=draw(st.integers(0, 1 << 64)))


# scenario-shaped text reaches the row and header parsers far more often
# than arbitrary text does
_TOKEN = st.one_of(
    st.integers(-(1 << 70), 1 << 70).map(str),
    st.floats().map(repr),
    st.sampled_from(["join", "leave", "=", "#"]),
    st.text(max_size=4),
)
_LINE = st.one_of(
    st.sampled_from(["[nodes]", "[seeds]", "[churn]", "[other]", ""]),
    st.tuples(st.sampled_from(["rng_seed", "bogus"] + list(Params.__dataclass_fields__)
                              + _REMOVED_KEYS),
              _TOKEN).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.lists(_TOKEN, max_size=7).map(" ".join),
    st.text(max_size=20),
)


class TestFormatProperties:
    @settings(deadline=None)
    @given(st.one_of(st.text(), st.lists(_LINE, max_size=25).map("\n".join)))
    @example("period_seconds = 1e306\n")  # finite seconds, infinite milliseconds
    def test_loads_returns_a_scenario_or_a_format_error(self, text):
        try:
            sc = loads(text)
        except ScenarioFormatError:
            return
        assert isinstance(sc, Scenario)

    @settings(deadline=None)
    @given(_scenarios())
    def test_dump_load_dump_is_identical(self, sc):
        text = dumps(sc)
        assert dumps(loads(text)) == text

    @settings(deadline=None)
    @given(_scenarios(), st.sampled_from([0.25, 0.5, 1.0]))
    def test_added_churn_replays_the_listed_schedule(self, sc, rate):
        listed = {n.node_id for n in sc.nodes}
        listed.update(ev.node.node_id if ev.op == "join" else ev.node_id for ev in sc.churn)
        assume(max(listed) < (1 << 64) - (1 << 16))  # room for fresh ids
        # building the result checks the merged schedule: no generated
        # leave or join collides with a listed event, earlier or later
        out = add_random_churn(sc, rounds=4, rate=rate, region=(1000.0, 1000.0),
                               radius_law=10.0)
        assert out.churn[:len(sc.churn)] == sc.churn
        added = out.churn[len(sc.churn):]
        assert all(ev.node.node_id > max(listed) for ev in added if ev.op == "join")
        # each round adds as many joins as its rate of the population after
        # the earlier rounds and this round's listed events; a checked
        # schedule alternates the joins and leaves of each id, so toggling
        # each event's id gives the live set whatever the order
        def toggle(live, events):
            for ev in events:
                live ^= {ev.node.node_id if ev.op == "join" else ev.node_id}

        live = {n.node_id for n in sc.nodes}
        for rnd in range(4):
            toggle(live, [ev for ev in sc.churn if ev.round == rnd])
            joins = [ev for ev in added if ev.round == rnd and ev.op == "join"]
            assert len(joins) == int(round(rate * len(live)))
            toggle(live, [ev for ev in added if ev.round == rnd])
