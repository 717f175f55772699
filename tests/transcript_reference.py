"""Session transcripts as records, emitted one at a time.

``Session.result`` reads each trial's row of its phase arrays and
``transcript.write_transcript`` writes them as numbered text in one pass;
the tests compare that text against ``format_transcript`` of the records
this independent route builds from the same arrays.
"""

import numpy as np

from csdcsim.bases import EncodingOp
from csdcsim.protocol import EVE, Session, _pair_triplets
from csdcsim.states import BASES, BELL_OUTCOMES, QubitId
from csdcsim.transcript import TranscriptRecord


def reference_records(session: Session, trial: int) -> tuple[TranscriptRecord, ...]:
    """The transcript of one trial, in protocol order, from the outcomes
    the phases stored.  Announcements are authenticated: the
    eavesdropper reads them but cannot alter or suppress them."""
    cfg, count = session.config, session.config.triplet_count
    records: list[TranscriptRecord] = []
    # the names of the positions the phases stored
    basis_names = [basis.value for basis in BASES]
    bell_names = [outcome.value for outcome in BELL_OUTCOMES]
    ops = tuple(EncodingOp)

    def emit(phase: str, actor: str, action: str, detail: str) -> None:
        records.append(TranscriptRecord(len(records) + 1, phase, actor, action, detail))

    sizes = f"triplets={count} parties={cfg.party_count} groups={cfg.group_count}"
    emit("S1", cfg.receiver, "PREPARE", sizes)
    emit("S1", cfg.receiver, "SEND", f"to={cfg.sender} sequence=travel count={count}")
    seen = zip(*session._tap[:, trial].tolist())
    taps = [f"basis={basis_names[basis]} outcome={outcome}" for basis, outcome in seen]
    if QubitId(1, "e") in session._prepared.qubits:  # a probe coupled, nothing measured
        taps = ["probe=cnot"] * count
    for n, detail in enumerate(taps, 1):
        emit("S1", EVE, "TAP", f"triplet={n} {detail}")
    for ctrl in cfg.controllers:
        emit("S1", cfg.receiver, "SEND", f"to={ctrl} sequence=control count={count}")
    for party in (cfg.sender,) + cfg.controllers:
        emit("S2", party, "RECEIPT", f"party={party} count={count}")

    checking = session.checking_groups[trial].tolist()
    encoding = session.encoding_groups[trial].tolist()
    selection = f"checking={','.join(map(str, checking))} encoding={','.join(map(str, encoding))}"
    emit("S3", cfg.sender, "GROUP_SELECTION", selection)

    checked = _pair_triplets(session.checking_groups[trial]).tolist()
    labels = [basis_names[basis] for basis in session._check_bases[trial].tolist()]
    bits = {party: column[trial].tolist() for party, column in session._check_bits.items()}
    parties = (cfg.sender, cfg.receiver) + cfg.controllers
    for i, (n, label) in enumerate(zip(checked, labels)):
        outcome = bits[cfg.sender][i]
        emit("S4", cfg.sender, "CHECK_ANNOUNCE", f"triplet={n} basis={label} outcome={outcome}")
        for party in parties[1:]:
            detail = f"party={party} triplet={n} basis={label} outcome={bits[party][i]}"
            emit("S4", party, "CHECK_REPLY", detail)
    for n, label, outcome in zip(checked, labels, bits.get(EVE, ())):
        emit("S4", EVE, "ANCILLA_MEASURE", f"triplet={n} basis={label} outcome={outcome}")
    counts = f"checked={len(checked)} violations={session.violations[trial]}"
    if not session.completed[trial]:
        emit("S4", cfg.sender, "CHECK_VERDICT", f"verdict=abort {counts}")
        detail = f"reason=check_failed triplet={session.abort_triplet[trial]}"
        emit("S4", cfg.sender, "ABORT", detail)
        return tuple(records)
    emit("S4", cfg.sender, "CHECK_VERDICT", f"verdict=pass {counts}")

    # the trial's row among those that passed
    j = int(np.count_nonzero(session.completed[:trial]))
    triplets = _pair_triplets(np.array(encoding)).tolist()
    controller_bits = {ctrl: column[j].tolist() for ctrl, column in session._controller_bits.items()}
    for ctrl in cfg.controllers:
        for n, outcome in zip(triplets, controller_bits[ctrl]):
            emit("S5", ctrl, "HADAMARD_MEASURE", f"triplet={n} outcome={outcome}")
    for ctrl in cfg.controllers:
        listed = ",".join(f"{n}:{outcome}" for n, outcome in zip(triplets, controller_bits[ctrl]))
        emit("S6", ctrl, "CONTROLLER_OUTCOMES", f"party={ctrl} outcomes={listed}")

    sender_bell = [bell_names[k] for k in session._sender_bell[j].tolist()]
    for g, k, outcome in zip(encoding, session._ops[j].tolist(), sender_bell):
        emit("S7", cfg.sender, "ENCODE", f"group={g} bits={ops[k].bits} op={ops[k].name}")
        detail = f"group={g} pair=t{2 * g - 1},t{2 * g} outcome={outcome}"
        emit("S7", cfg.sender, "BELL_MEASURE", detail)
    for g, outcome in zip(encoding, sender_bell):
        emit("S8", cfg.sender, "BELL_ANNOUNCE", f"group={g} outcome={outcome}")

    parities = session.parities[j].tolist()
    decoded = "".join(map(str, session.decoded[trial].tolist()))
    chunks = [decoded[k : k + 2] for k in range(0, len(decoded), 2)]
    receiver_bell = [bell_names[k] for k in session._receiver_bell[j].tolist()]
    read = zip(encoding, sender_bell, receiver_bell, chunks)
    for i, (g, sender, receiver, chunk) in enumerate(read):
        detail = f"group={g} pair=h{2 * g - 1},h{2 * g} outcome={receiver}"
        emit("S9", cfg.receiver, "BELL_MEASURE", detail)
        bells = f"sender={sender} receiver={receiver}"
        detail = f"group={g} parities={parities[2 * i]}{parities[2 * i + 1]} {bells} bits={chunk}"
        emit("S9", cfg.receiver, "DECODE", detail)
    for g, k in zip(encoding, session._ancilla_bell[j].tolist()):
        detail = f"group={g} pair=e{2 * g - 1},e{2 * g} outcome={bell_names[k]}"
        emit("S9", EVE, "ANCILLA_BELL", detail)
    emit("S11", cfg.receiver, "COMPLETE", f"decoded={decoded}")
    return tuple(records)
