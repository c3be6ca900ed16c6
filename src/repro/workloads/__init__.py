"""Workload generation: synthetic event payloads and input-rate profiles.

The paper's experiments use synthetic events at a fixed 8 events/second; this
package provides the payload factories for the two application domains the
paper's DAGs model (GPS probes for Traffic, smart-meter readings for Grid), a
generic sensor payload, and input-rate profiles (constant, step, ramp, burst)
that examples use to exercise dynamism beyond the paper's fixed-rate setup.
"""

from repro.workloads.generator import (
    PayloadFactory,
    gps_payload_factory,
    sensor_payload_factory,
    smart_meter_payload_factory,
)
from repro.workloads.profiles import (
    PROFILE_PRESETS,
    BurstProfile,
    ConstantRateProfile,
    DiurnalProfile,
    RampProfile,
    RateProfile,
    StepProfile,
    attach_profile,
    profile_by_name,
)

__all__ = [
    "BurstProfile",
    "ConstantRateProfile",
    "DiurnalProfile",
    "PROFILE_PRESETS",
    "PayloadFactory",
    "RampProfile",
    "RateProfile",
    "StepProfile",
    "attach_profile",
    "profile_by_name",
    "gps_payload_factory",
    "sensor_payload_factory",
    "smart_meter_payload_factory",
]
