"""Session transcripts as records, emitted one at a time.

``Session.result`` holds each trial's rows of its phase arrays as the
keyword arguments of ``transcript.write_transcript``, which writes them as
numbered text in one pass; the tests compare that text against
``format_transcript`` of the records this independent route builds from
the same values.
"""

import numpy as np

from csdcsim.bases import EncodingOp
from csdcsim.protocol import EVE, _pair_triplets
from csdcsim.states import BASES, BELL_OUTCOMES
from csdcsim.transcript import TranscriptRecord


def reference_records(
    triplets, sender, receiver, controllers, tap, checking, encoding, check_bases, check_bits,
    violations, abort_triplet, controller_bits=None, parities=(), ops=(), sender_bell=(),
    receiver_bell=(), ancilla_bell=(), decoded="",
) -> tuple[TranscriptRecord, ...]:
    """The transcript of one trial, in protocol order, from the outcomes
    the phases stored.  Announcements are authenticated: the
    eavesdropper reads them but cannot alter or suppress them."""
    records: list[TranscriptRecord] = []
    # the names of the positions the phases stored
    basis_names = [basis.value for basis in BASES]
    bell_names = [outcome.value for outcome in BELL_OUTCOMES]
    operations = tuple(EncodingOp)

    def emit(phase: str, actor: str, action: str, detail: str) -> None:
        records.append(TranscriptRecord(len(records) + 1, phase, actor, action, detail))

    parties = (sender, receiver, *controllers)
    checking, encoding = np.asarray(checking).tolist(), np.asarray(encoding).tolist()
    sizes = f"triplets={triplets} parties={len(parties)} groups={len(checking) + len(encoding)}"
    emit("S1", receiver, "PREPARE", sizes)
    emit("S1", receiver, "SEND", f"to={sender} sequence=travel count={triplets}")
    if isinstance(tap, str):  # a probe coupled, nothing measured
        taps = ["probe=cnot"] * triplets
    else:
        seen = zip(*np.asarray(tap).tolist())
        taps = [f"basis={basis_names[basis]} outcome={outcome}" for basis, outcome in seen]
    for n, detail in enumerate(taps, 1):
        emit("S1", EVE, "TAP", f"triplet={n} {detail}")
    for ctrl in controllers:
        emit("S1", receiver, "SEND", f"to={ctrl} sequence=control count={triplets}")
    for party in (sender, *controllers):
        emit("S2", party, "RECEIPT", f"party={party} count={triplets}")

    selection = f"checking={','.join(map(str, checking))} encoding={','.join(map(str, encoding))}"
    emit("S3", sender, "GROUP_SELECTION", selection)

    checked = _pair_triplets(np.array(checking, int)).tolist()
    labels = [basis_names[basis] for basis in np.asarray(check_bases).tolist()]
    bits = {party: np.asarray(column).tolist() for party, column in check_bits.items()}
    for i, (n, label) in enumerate(zip(checked, labels)):
        outcome = bits[sender][i]
        emit("S4", sender, "CHECK_ANNOUNCE", f"triplet={n} basis={label} outcome={outcome}")
        for party in parties[1:]:
            detail = f"party={party} triplet={n} basis={label} outcome={bits[party][i]}"
            emit("S4", party, "CHECK_REPLY", detail)
    for n, label, outcome in zip(checked, labels, bits.get(EVE, ())):
        emit("S4", EVE, "ANCILLA_MEASURE", f"triplet={n} basis={label} outcome={outcome}")
    counts = f"checked={len(checked)} violations={violations}"
    if abort_triplet is not None:
        emit("S4", sender, "CHECK_VERDICT", f"verdict=abort {counts}")
        emit("S4", sender, "ABORT", f"reason=check_failed triplet={abort_triplet}")
        return tuple(records)
    emit("S4", sender, "CHECK_VERDICT", f"verdict=pass {counts}")

    encoded = _pair_triplets(np.array(encoding, int)).tolist()
    listed = {ctrl: np.asarray(controller_bits[ctrl]).tolist() for ctrl in controllers}
    for ctrl in controllers:
        for n, outcome in zip(encoded, listed[ctrl]):
            emit("S5", ctrl, "HADAMARD_MEASURE", f"triplet={n} outcome={outcome}")
    for ctrl in controllers:
        pairs = ",".join(f"{n}:{outcome}" for n, outcome in zip(encoded, listed[ctrl]))
        emit("S6", ctrl, "CONTROLLER_OUTCOMES", f"party={ctrl} outcomes={pairs}")

    sent = [bell_names[k] for k in np.asarray(sender_bell).tolist()]
    for g, k, outcome in zip(encoding, np.asarray(ops).tolist(), sent):
        op = operations[k]
        emit("S7", sender, "ENCODE", f"group={g} bits={op.bits} op={op.name}")
        detail = f"group={g} pair=t{2 * g - 1},t{2 * g} outcome={outcome}"
        emit("S7", sender, "BELL_MEASURE", detail)
    for g, outcome in zip(encoding, sent):
        emit("S8", sender, "BELL_ANNOUNCE", f"group={g} outcome={outcome}")

    parities = np.asarray(parities).tolist()
    chunks = [decoded[k : k + 2] for k in range(0, len(decoded), 2)]
    received = [bell_names[k] for k in np.asarray(receiver_bell).tolist()]
    read = zip(encoding, sent, received, chunks)
    for i, (g, s, r, chunk) in enumerate(read):
        emit("S9", receiver, "BELL_MEASURE", f"group={g} pair=h{2 * g - 1},h{2 * g} outcome={r}")
        bells = f"sender={s} receiver={r}"
        detail = f"group={g} parities={parities[2 * i]}{parities[2 * i + 1]} {bells} bits={chunk}"
        emit("S9", receiver, "DECODE", detail)
    for g, k in zip(encoding, np.asarray(ancilla_bell).tolist()):
        detail = f"group={g} pair=e{2 * g - 1},e{2 * g} outcome={bell_names[k]}"
        emit("S9", EVE, "ANCILLA_BELL", detail)
    emit("S11", receiver, "COMPLETE", f"decoded={decoded}")
    return tuple(records)
