"""Electronic health record (EHR) store.

Section III(i) of the paper notes that "network connectivity in medical
devices and increasing availability of electronic health records (EHR) makes
it possible to develop adaptive algorithms that will be attuned to the unique
parameters of a given patient" -- for example, knowing a patient is a trained
athlete lets the system lower heart-rate alarm thresholds.

* :class:`~repro.ehr.store.EHRStore` -- per-patient records of demographics,
  history entries, vital-sign baselines, and medications.
"""

from repro.ehr.store import EHRStore, HistoryEntry, PatientRecord

__all__ = [
    "EHRStore",
    "HistoryEntry",
    "PatientRecord",
]
