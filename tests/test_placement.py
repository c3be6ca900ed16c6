"""Unit tests for placement plans and plan diffing."""

from __future__ import annotations

import pytest

from repro.cluster.placement import PlacementPlan, placement_diff


def make_plan(assignments):
    plan = PlacementPlan()
    for executor_id, (slot_id, vm_id) in assignments.items():
        plan.assign(executor_id, slot_id, vm_id)
    return plan


class TestPlacementPlan:
    def test_assign_and_lookup(self):
        plan = make_plan({"a#0": ("vm1:slot0", "vm1"), "b#0": ("vm2:slot0", "vm2")})
        assert plan.slot_of("a#0") == "vm1:slot0"
        assert plan.vm_of("b#0") == "vm2"
        assert len(plan) == 2
        assert "a#0" in plan
        assert "z#0" not in plan

    def test_duplicate_executor_rejected(self):
        plan = make_plan({"a#0": ("vm1:slot0", "vm1")})
        with pytest.raises(ValueError):
            plan.assign("a#0", "vm1:slot1", "vm1")

    def test_duplicate_slot_rejected(self):
        plan = make_plan({"a#0": ("vm1:slot0", "vm1")})
        with pytest.raises(ValueError):
            plan.assign("b#0", "vm1:slot0", "vm1")

    def test_vms_used(self):
        plan = make_plan(
            {"a#0": ("vm1:slot0", "vm1"), "b#0": ("vm1:slot1", "vm1"), "c#0": ("vm2:slot0", "vm2")}
        )
        assert plan.vms_used == {"vm1", "vm2"}

    def test_copy_is_independent(self):
        plan = make_plan({"a#0": ("vm1:slot0", "vm1")})
        clone = plan.copy()
        clone.assign("b#0", "vm1:slot1", "vm1")
        assert "b#0" not in plan
        assert "b#0" in clone


class TestPlacementDiff:
    def test_classifies_migrating_staying_and_new(self):
        old = make_plan({"a#0": ("vm1:slot0", "vm1"), "b#0": ("vm1:slot1", "vm1")})
        new = make_plan(
            {"a#0": ("vm2:slot0", "vm2"), "b#0": ("vm1:slot1", "vm1"), "c#0": ("vm2:slot1", "vm2")}
        )
        migrating, staying, new_executors = placement_diff(old, new)
        assert migrating == {"a#0"}
        assert staying == {"b#0"}
        assert new_executors == {"c#0"}

    def test_identical_plans_have_no_migrations(self):
        plan = make_plan({"a#0": ("vm1:slot0", "vm1")})
        migrating, staying, new_executors = placement_diff(plan, plan.copy())
        assert migrating == set()
        assert staying == {"a#0"}
        assert new_executors == set()

    def test_full_migration(self):
        old = make_plan({"a#0": ("vm1:slot0", "vm1"), "b#0": ("vm1:slot1", "vm1")})
        new = make_plan({"a#0": ("vm2:slot0", "vm2"), "b#0": ("vm2:slot1", "vm2")})
        migrating, staying, _ = placement_diff(old, new)
        assert migrating == {"a#0", "b#0"}
        assert staying == set()
