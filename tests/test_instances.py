"""Tests for instance generation, serialization, and parsing."""

import dataclasses
import json

import numpy as np
import pytest

from neurovrp.instances import (CvrplibParseError, GenConfig, Instance,
                                Variant, build_distance_matrix,
                                default_beta, default_capacity, generate,
                                generate_avrp, parse_cvrplib)


class TestGeneration:
    def test_deterministic_in_seed(self):
        a = generate(Variant.VRP, 15, seed=42)
        b = generate(Variant.VRP, 15, seed=42)
        assert np.array_equal(a.customers, b.customers)
        assert np.array_equal(a.demands, b.demands)
        c = generate(Variant.VRP, 15, seed=43)
        assert not np.array_equal(a.customers, c.customers)

    def test_base_draw_shared_across_variants(self):
        insts = {v: generate(v, 12, seed=5) for v in Variant}
        ref = insts[Variant.VRP]
        for v, inst in insts.items():
            assert np.array_equal(inst.depot, ref.depot), v
            assert np.array_equal(inst.customers, ref.customers), v
            assert np.array_equal(inst.demands, ref.demands), v

    def test_coordinates_in_unit_square(self):
        for v in Variant:
            inst = generate(v, 30, seed=1)
            c = inst.coords()
            assert c.min() >= 0.0 and c.max() <= 1.0

    def test_demand_range(self):
        inst = generate(Variant.VRP, 200, seed=0)
        assert inst.demands.min() >= 1 and inst.demands.max() <= 10

    @pytest.mark.parametrize("n,cap", [(50, 50), (100, 50), (101, 100),
                                       (500, 100), (501, 200), (2000, 200)])
    def test_default_capacity_tiers(self, n, cap):
        assert default_capacity(n) == cap

    def test_capacity_override(self):
        inst = generate(Variant.VRP, 10, seed=0, config=GenConfig(capacity=77))
        assert inst.capacity == 77

    def test_bad_n_rejected(self):
        with pytest.raises(ValueError):
            generate(Variant.VRP, 0)


class TestVariantAttributes:
    def test_vrptw_windows_solo_servable(self):
        inst = generate(Variant.VRPTW, 50, seed=3)
        tw = inst.time_windows
        d0 = np.hypot(*(inst.customers - inst.depot).T)
        # a vehicle leaving at time 0 reaches within the window ...
        assert (np.maximum(d0, tw.earliest) <= tw.latest).all()
        # ... and can serve and return before the horizon
        assert (np.maximum(d0, tw.earliest) + tw.service + d0
                <= tw.horizon + 1e-12).all()
        assert tw.horizon == 4.6

    def test_vrptw_service_and_width_ranges(self):
        inst = generate(Variant.VRPTW, 80, seed=9)
        tw = inst.time_windows
        width = tw.latest - tw.earliest
        assert (tw.service >= 0.15).all() and (tw.service <= 0.2).all()
        assert (width >= 0.15 - 1e-12).all() and (width <= 0.2 + 1e-12).all()

    def test_evrpcs_stations_cover_customers(self):
        inst = generate(Variant.EVRPCS, 40, seed=7)
        assert inst.n_optional == 4
        assert inst.resource_max == 2.0
        d0 = np.hypot(*(inst.customers - inst.depot).T)
        d_st = np.linalg.norm(
            inst.customers[:, None, :] - inst.optional_nodes[None, :, :],
            axis=-1)
        nearest = np.minimum(d0, d_st.min(axis=1))
        assert (d0 + nearest <= inst.resource_max).all()

    def test_vrprs_defaults(self):
        inst = generate(Variant.VRPRS, 25, seed=2)
        assert inst.n_optional == 5
        assert inst.resource_max == 4.0

    def test_optional_counts_configurable(self):
        inst = generate(Variant.EVRPCS, 10, seed=0,
                        config=GenConfig(n_stations=2))
        assert inst.n_optional == 2


class TestAvrp:
    def test_exact_perturbation_count(self):
        inst = generate(Variant.AVRP, 100, seed=3)
        base = generate(Variant.VRP, 100, seed=3)
        euclid = build_distance_matrix(
            Instance(variant=Variant.VRP, depot=base.depot,
                     customers=base.customers, demands=base.demands,
                     capacity=base.capacity)).values
        ratio = np.divide(inst.asym_matrix, euclid,
                          out=np.ones_like(euclid), where=euclid > 0)
        perturbed = ratio > 1.0
        assert perturbed.sum() == 50
        assert (ratio[perturbed] <= 1.2 + 1e-12).all()
        # reverse entries of perturbed pairs stay Euclidean
        rows, cols = np.nonzero(perturbed)
        assert np.allclose(inst.asym_matrix[cols, rows], euclid[cols, rows])

    @pytest.mark.parametrize("n,beta", [(100, 50), (500, 200), (1000, 400),
                                        (20, 10)])
    def test_default_beta_tiers(self, n, beta):
        assert default_beta(n) == beta

    def test_beta_bounds_checked(self):
        base = generate(Variant.VRP, 10, seed=0)
        with pytest.raises(ValueError):
            generate_avrp(base, beta=11)
        with pytest.raises(ValueError):
            generate_avrp(base, beta=0)

    def test_diagonal_zero(self):
        inst = generate(Variant.AVRP, 30, seed=1)
        assert (np.diag(inst.asym_matrix) == 0).all()


class TestDistanceMatrix:
    def test_euclidean_symmetric(self):
        inst = generate(Variant.EVRPCS, 10, seed=0)
        dm = build_distance_matrix(inst)
        assert dm.symmetric
        assert dm.values.shape == (inst.n_nodes, inst.n_nodes)
        assert np.allclose(dm.values, dm.values.T)
        assert (np.diag(dm.values) == 0).all()
        i, j = 2, 7
        assert np.isclose(dm.values[i, j],
                          np.linalg.norm(inst.coords()[i] - inst.coords()[j]))

    def test_explicit_returned_verbatim(self):
        inst = generate(Variant.AVRP, 10, seed=0)
        dm = build_distance_matrix(inst)
        assert not dm.symmetric
        assert dm.values is inst.asym_matrix


class TestSerialization:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_json_roundtrip(self, variant):
        inst = generate(variant, 9, seed=4)
        back = Instance.from_json(inst.to_json())
        assert back.variant == inst.variant
        assert np.array_equal(back.customers, inst.customers)
        assert np.array_equal(back.demands, inst.demands)
        assert back.capacity == inst.capacity
        assert np.array_equal(back.optional_nodes, inst.optional_nodes)
        if variant == Variant.VRPTW:
            assert np.array_equal(back.time_windows.earliest,
                                  inst.time_windows.earliest)
        if variant == Variant.AVRP:
            assert np.array_equal(back.asym_matrix, inst.asym_matrix)

    def test_version_rejected(self):
        inst = generate(Variant.VRP, 5, seed=0)
        bad = inst.to_json().replace('"format_version": 1',
                                     '"format_version": 9')
        with pytest.raises(ValueError):
            Instance.from_json(bad)

    @pytest.mark.parametrize("variant, key, edit, match", [
        ("VRP", "demands", lambda v: v[:3], "demands has shape"),
        ("VRP", "demands", lambda v: v + [1, 1], "demands has shape"),
        ("VRP", "demands", lambda v: [1.5] + v[1:], "demands must be integ"),
        ("VRP", "demands", lambda v: [51] + v[1:], "exceed capacity 50"),
        ("VRP", "depot", lambda v: v + [0.5], "depot has shape"),
        ("VRP", "customers", lambda v: [p + [0.5] for p in v],
         "customers has shape"),
        ("VRP", "customers", lambda v: [[float("nan"), 0.5]] + v[1:],
         "coordinates must be finite"),
        ("VRPTW", "time_windows", lambda v: {**v, "service": v["service"][:2]},
         "time_windows.service has shape"),
        ("VRPTW", "time_windows", lambda v: {**v, "horizon": float("inf")},
         "horizon must be finite"),
        ("EVRPCS", "resource_max", lambda v: 0.0, "resource_max"),
        ("VRPRS", "optional_nodes", lambda v: [p + [0.5] for p in v],
         "optional_nodes has shape"),
    ], ids=["demands-short", "demands-long", "demands-fractional",
            "demand-over-capacity", "depot-3d", "customers-3d",
            "coordinate-nan", "service-short", "horizon-inf",
            "resource-zero", "stops-3d"])
    def test_malformed_document_rejected_naming_the_field(self, variant, key,
                                                          edit, match):
        doc = json.loads(generate(variant, 5, seed=0).to_json())
        doc[key] = edit(doc[key])
        with pytest.raises(ValueError, match=match):
            Instance.from_json(json.dumps(doc))

    def test_missing_key_named(self):
        doc = json.loads(generate(Variant.VRP, 5, seed=0).to_json())
        del doc["demands"]
        with pytest.raises(ValueError, match=r"missing required keys: \['demands'\]"):
            Instance.from_json(json.dumps(doc))

    def test_non_numeric_array_named(self):
        doc = json.loads(generate(Variant.VRP, 5, seed=0).to_json())
        doc["depot"] = ["a", "b"]
        with pytest.raises(ValueError, match="^depot: "):
            Instance.from_json(json.dumps(doc))

    def test_empty_customer_set_rejected(self):
        inst = generate(Variant.VRP, 5, seed=0)
        empty = dataclasses.replace(inst, customers=np.zeros((0, 2)),
                                    demands=np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="customer set is empty"):
            empty.validate()
        with pytest.raises(ValueError, match="customer set is empty"):
            Instance.from_json(empty.to_json())


CVRPLIB_SAMPLE = """NAME : tiny-4
TYPE : CVRP
DIMENSION : 4
EDGE_WEIGHT_TYPE : EUC_2D
CAPACITY : 30
NODE_COORD_SECTION
1 0 0
2 10 0
3 10 20
4 0 20
DEMAND_SECTION
1 0
2 7
3 11
4 5
DEPOT_SECTION
1
-1
EOF
"""


class TestCvrplib:
    def test_parse_basic(self):
        inst = parse_cvrplib(CVRPLIB_SAMPLE)
        assert inst.variant == Variant.VRP
        assert inst.n_customers == 3
        assert inst.capacity == 30
        assert inst.demands.tolist() == [7, 11, 5]
        assert inst.coords().min() >= 0 and inst.coords().max() <= 1.0

    def test_rescale_preserves_aspect_and_records_scale(self):
        inst = parse_cvrplib(CVRPLIB_SAMPLE)
        # original span is 20 on y, so scale = 1/20
        assert np.isclose(inst.coord_scale, 1.0 / 20.0)
        d = build_distance_matrix(inst)
        # depot (0,0) to customer (10,0): 10 units -> 0.5
        assert np.isclose(d.values[0, 1], 0.5)

    def test_missing_header_is_error(self):
        text = CVRPLIB_SAMPLE.replace("CAPACITY : 30\n", "")
        with pytest.raises(CvrplibParseError, match="CAPACITY"):
            parse_cvrplib(text)

    def test_bad_entry_names_line(self):
        text = CVRPLIB_SAMPLE.replace("2 10 0", "2 ten 0")
        with pytest.raises(CvrplibParseError, match="line"):
            parse_cvrplib(text)

    def test_dimension_mismatch(self):
        text = CVRPLIB_SAMPLE.replace("DIMENSION : 4", "DIMENSION : 5")
        with pytest.raises(CvrplibParseError):
            parse_cvrplib(text)

    def test_explicit_matrix_becomes_asymmetric(self):
        text = """NAME : asym-3
DIMENSION : 3
EDGE_WEIGHT_TYPE : EXPLICIT
EDGE_WEIGHT_FORMAT : FULL_MATRIX
CAPACITY : 10
NODE_COORD_SECTION
1 0 0
2 1 0
3 0 1
DEMAND_SECTION
1 0
2 3
3 4
EDGE_WEIGHT_SECTION
0 2 3
5 0 7
11 13 0
EOF
"""
        inst = parse_cvrplib(text)
        assert inst.variant == Variant.AVRP
        m = inst.asym_matrix
        assert m.shape == (3, 3)
        assert not np.allclose(m, m.T)
        assert (np.diag(m) == 0).all()

    def test_unsupported_edge_weight_type(self):
        text = CVRPLIB_SAMPLE.replace("EUC_2D", "GEO")
        with pytest.raises(CvrplibParseError, match="GEO"):
            parse_cvrplib(text)
