//! The standard mix is kept as the v2 bytes its capture streamed, each
//! segment stamped with its drain's cycle. E2 reports the size the
//! in-memory trace encodes to (cycle stamps 0), derived from those
//! bytes' segment headers alone.

use atum_analysis::{experiments, Scale};
use atum_core::{decode_trace, encode_trace};

#[test]
fn e2_counts_what_the_decoded_bytes_encode_to() {
    let run = experiments::capture_standard_mix(Scale::Quick).expect("capture");
    let want = encode_trace(&decode_trace(&run.bytes).expect("kept bytes decode")).len();
    assert!(want < run.bytes.len(), "the drain stamps are nonzero");
    let e2 = experiments::e2_compaction(Scale::Quick, &run).expect("e2");
    let archived = &e2.tables[0].1.rows()[1];
    assert_eq!(archived[0], "archived (host-compacted)");
    assert_eq!(archived[1], want.to_string());
}
