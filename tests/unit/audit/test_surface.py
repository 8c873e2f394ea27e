"""Surface extraction over the *shipped* sources: the parity pass is
only as good as what the extractors see, so these tests pin the
extracted shapes (kernel sets, comparator order, constants, ABI) to
the known runtime contract."""

from repro.audit.surface import (extract_c_surface, load_c_surface,
                                 load_py_surface)

#: The ten dispatch-critical kernels the seam exports.
KERNELS = frozenset({"Event", "Deliver", "Receive", "Finish", "Process",
                     "LinkTransmit", "SlotTransmit", "FaultHook",
                     "drain", "set_timer_twin"})


def test_c_surface_kernels():
    assert load_c_surface().kernels == KERNELS


def test_py_surface_kernels():
    assert load_py_surface().kernels_consumed == KERNELS


def test_comparator_field_order_matches():
    c = load_c_surface()
    py = load_py_surface()
    assert c.comparator == ("time", "priority", "seq")
    for name, fields in py.comparators.items():
        assert fields == c.comparator, name


def test_arena_caps_and_abi_match():
    c = load_c_surface()
    py = load_py_surface()
    assert c.constants["FREELIST_MAX"] == py.constants["FREELIST_MAX"]
    assert c.constants["ENV_POOL_MAX"] == py.constants["ENV_POOL_MAX"]
    assert c.constants["CCORE_ABI_VERSION"] == 7
    assert py.abi_expected == frozenset({7})


def test_interned_names_are_spelled_in_python():
    c = load_c_surface()
    py = load_py_surface()
    assert c.interned  # the INTERN table was actually found
    missing = (set(c.interned) | set(c.attr_lookups)) - py.attribute_names
    assert not missing, missing


def test_slot_fields_and_timer_methods_match_the_slot_class():
    c = load_c_surface()
    py = load_py_surface()
    # The robust-slot surface of the FSM and flowlink kernels: the
    # timer twins write the retransmit and staleness fields and arm
    # the two fire methods.
    assert {"_retx_signal", "_stale_timer", "duplicate_drops",
            "invalid_drops", "_retx_attempts", "_retx_interval",
            "_stale_attempts"} <= set(c.slot_fields)
    assert set(c.slot_methods) == {"_retx_fire", "_stale_fire"}
    assert set(c.slot_fields) <= py.slot_members
    assert set(c.slot_methods) <= py.slot_methods


def test_fault_kernel_names_match_the_fault_classes():
    c = load_c_surface()
    py = load_py_surface()
    assert c.class_fields == {
        "FaultyLink": ("_outage", "stats", "_hook", "link", "plan",
                       "exempt"),
        "FaultStats": ("exempted", "duplicated", "dropped", "forwarded"),
        "FaultPlan": ("drop", "duplicate", "jitter", "reorder"),
        "RetransmitPolicy": ("initial", "stale_after"),
        "Node": ("enqueue", "_timers", "loop", "set_timer"),
    }
    for cls, names in c.class_fields.items():
        assert set(names) <= py.class_members[cls], cls


def test_module_lookups_resolve_structurally():
    lookups = dict(load_c_surface().module_lookups)
    assert lookups.get("repro.protocol.signals") or any(
        mod == "repro.protocol.signals"
        for mod, _ in load_c_surface().module_lookups)
    pairs = set(load_c_surface().module_lookups)
    assert ("repro.protocol.signals", "TunnelMessage") in pairs
    assert ("repro.protocol.slot", "Slot") in pairs


def test_py_surface_extraction_has_no_problems():
    assert load_py_surface().problems == ()


def test_extractor_rejects_surface_loss():
    """An extractor that silently matches nothing would make every
    parity run vacuously clean; extraction over empty text must come
    back visibly empty so diff_surfaces can flag it."""
    empty = extract_c_surface("int main(void) { return 0; }\n")
    assert not empty.kernels
    assert not empty.interned
    assert empty.comparator == ()
