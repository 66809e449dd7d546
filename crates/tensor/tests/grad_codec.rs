//! The binary gradient encoding of the shard wire
//! ([`ParamGrads::encode_into`] / [`ParamGrads::decode_all`]).
//!
//! Three guarantees are pinned here:
//!
//! 1. **Bit-exact round trip.** Over random layouts, every decoded array
//!    has the bits of the encoded one (−0.0, NaN payloads, ±inf and
//!    subnormals included) and every slot keeps its presence. This is
//!    what keeps sharded checkpoints byte-identical to serial ones.
//! 2. **A decoder that never panics.** Truncations, unknown tags, bad row
//!    indices, trailing bytes, over-cap shapes and random bytes give
//!    `Err(Error::Serde)`, checked before anything is allocated.
//! 3. **Sparsity.** An N×C gradient with k non-zero rows costs O(k·C)
//!    bytes, not O(N·C).

use fewner_tensor::{Array, ParamGrads, ParamStore};
use fewner_util::{Error, Rng};

/// The frame cap the shard wire passes (`MAX_PAYLOAD / 4` elements).
const CAP: usize = 1 << 26;

/// Values whose bits a lossy codec would change or merge.
const AWKWARD: [u32; 10] = [
    0x8000_0000, // −0.0
    0x7fc0_0000, // quiet NaN
    0x7fc0_1234, // quiet NaN with a payload
    0xffa0_0001, // negative signalling NaN with a payload
    0x7f80_0000, // +inf
    0xff80_0000, // −inf
    0x0000_0001, // smallest subnormal
    0x807f_ffff, // largest negative subnormal
    0x3f80_0000, // 1.0
    0x0000_0000, // +0.0
];

fn bits(a: &Array) -> Vec<u32> {
    a.data().iter().map(|x| x.to_bits()).collect()
}

fn encode(g: &ParamGrads) -> Vec<u8> {
    let mut out = Vec::new();
    g.encode_into(&mut out);
    out
}

fn decode_one(bytes: &[u8]) -> fewner_util::Result<ParamGrads> {
    ParamGrads::decode_all(bytes, 1, CAP).map(|mut v| v.remove(0))
}

/// Builds gradients over a store of the given shapes, filling the slots
/// marked present with `fill(rows, cols)`.
fn grads_of(
    shapes: &[(usize, usize)],
    present: &[bool],
    mut fill: impl FnMut(usize, usize) -> Array,
) -> ParamGrads {
    let mut store = ParamStore::new();
    for (i, &(r, c)) in shapes.iter().enumerate() {
        store.add(format!("p{i}"), Array::zeros(r, c));
    }
    let mut grads = ParamGrads::zeros_like(&store);
    for (i, &(r, c)) in shapes.iter().enumerate() {
        if present[i] {
            grads.accumulate(i, &fill(r, c));
        }
    }
    grads
}

/// A random array in one of four styles: all zero, dense normal, a few
/// non-zero rows, or awkward bit patterns scattered over zero rows.
fn random_array(rows: usize, cols: usize, rng: &mut Rng) -> Array {
    let mut a = Array::zeros(rows, cols);
    match rng.below(4) {
        0 => {}
        1 => a.data_mut().iter_mut().for_each(|x| *x = rng.normal()),
        2 => {
            for r in 0..rows {
                if rng.chance(0.2) {
                    a.row_mut(r).iter_mut().for_each(|x| *x = rng.normal());
                }
            }
        }
        _ => {
            for x in a.data_mut() {
                if rng.chance(0.3) {
                    *x = f32::from_bits(*rng.choose(&AWKWARD));
                }
            }
        }
    }
    a
}

fn assert_same(got: &ParamGrads, want: &ParamGrads, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: slot count");
    for i in 0..want.len() {
        match (got.get_at(i), want.get_at(i)) {
            (None, None) => {}
            (Some(g), Some(w)) => {
                assert_eq!(g.shape(), w.shape(), "{what}: slot {i} shape");
                assert_eq!(bits(g), bits(w), "{what}: slot {i} bits");
            }
            (g, w) => panic!(
                "{what}: slot {i} presence {} vs {}",
                g.is_some(),
                w.is_some()
            ),
        }
    }
}

/// Encoded size of one present slot: tag, shape, then the smaller form.
fn slot_len(rows: usize, cols: usize, kept: usize) -> usize {
    let dense = 4 * rows * cols;
    let sparse = 4 + kept * (4 + 4 * cols);
    1 + 8 + dense.min(sparse)
}

#[test]
fn random_layouts_round_trip_bit_for_bit() {
    let mut rng = Rng::new(0x5eed);
    for case in 0..300 {
        let slots = rng.below(8);
        let shapes: Vec<(usize, usize)> = (0..slots)
            .map(|_| match rng.below(5) {
                0 => (1, 1),
                _ => (rng.range(1, 13), rng.range(1, 10)),
            })
            .collect();
        let present: Vec<bool> = (0..slots).map(|_| !rng.chance(0.25)).collect();
        let grads = grads_of(&shapes, &present, |r, c| random_array(r, c, &mut rng));
        let bytes = encode(&grads);
        let back = decode_one(&bytes).unwrap();
        assert_same(&back, &grads, &format!("case {case}"));
        // The size is exactly the per-slot minimum of dense and sparse.
        let want: usize = 4
            + (0..slots)
                .map(|i| match grads.get_at(i) {
                    None => 1,
                    Some(a) => {
                        let kept = (0..a.rows())
                            .filter(|&r| a.row(r).iter().any(|x| x.to_bits() != 0))
                            .count();
                        slot_len(a.rows(), a.cols(), kept)
                    }
                })
                .sum::<usize>();
        assert_eq!(bytes.len(), want, "case {case}: encoded size");
    }
}

#[test]
fn sets_laid_end_to_end_decode_in_order() {
    let mut rng = Rng::new(7);
    let shapes = [(3, 4), (1, 1), (6, 2)];
    let sets: Vec<ParamGrads> = (0..3)
        .map(|i| {
            let present = [true, i != 1, i != 2];
            grads_of(&shapes, &present, |r, c| random_array(r, c, &mut rng))
        })
        .collect();
    let mut body = Vec::new();
    for g in &sets {
        g.encode_into(&mut body);
    }
    let back = ParamGrads::decode_all(&body, 3, CAP).unwrap();
    for (i, (got, want)) in back.iter().zip(&sets).enumerate() {
        assert_same(got, want, &format!("set {i}"));
    }
    assert!(
        ParamGrads::decode_all(&body, 2, CAP).is_err(),
        "one set left over"
    );
    assert!(
        ParamGrads::decode_all(&body, 4, CAP).is_err(),
        "one set missing"
    );
    assert!(ParamGrads::decode_all(&[], 0, CAP).unwrap().is_empty());
}

#[test]
fn both_sides_of_the_dense_sparse_choice_keep_their_bits() {
    // One −0.0 row among zero rows: the row is kept (its bits are not all
    // zero), and the rebuilt zero rows are +0.0.
    let mut a = Array::zeros(10, 4);
    a.row_mut(3)[2] = -0.0;
    // Sparse is smaller here: 4 + (4 + 16) < 160.
    let sparse = grads_of(&[(10, 4)], &[true], |_, _| a.clone());
    let bytes = encode(&sparse);
    assert_eq!(bytes.len(), 4 + slot_len(10, 4, 1));
    assert!(bytes.len() < 4 + 1 + 8 + 160);
    assert_same(&decode_one(&bytes).unwrap(), &sparse, "sparse");
    // A tie (4 + 1·(4 + 8) = 16 = dense 16) stays dense.
    let tie = grads_of(&[(2, 2)], &[true], |_, _| {
        Array::from_vec(2, 2, vec![f32::NAN, 0.0, 0.0, 0.0])
    });
    let bytes = encode(&tie);
    assert_eq!(bytes[4], 1, "dense tag");
    assert_same(&decode_one(&bytes).unwrap(), &tie, "tie");
    // All-zero arrays and 1×1 arrays.
    let zeros = grads_of(&[(5, 3), (1, 1), (1, 1)], &[true, true, false], |r, c| {
        Array::zeros(r, c)
    });
    assert_same(&decode_one(&encode(&zeros)).unwrap(), &zeros, "zeros");
}

#[test]
fn cost_grows_with_non_zero_rows_not_with_the_table() {
    // An embedding-table-shaped gradient: N rows, k of them touched.
    let (n, c) = (3248, 32);
    for k in [0usize, 1, 10, 150] {
        let grads = grads_of(&[(n, c)], &[true], |r, c| {
            let mut a = Array::zeros(r, c);
            for i in 0..k {
                a.row_mut(i * (r / k.max(1))).fill(0.5);
            }
            a
        });
        let bytes = encode(&grads);
        assert_eq!(bytes.len(), 4 + 1 + 8 + 4 + k * (4 + 4 * c), "k = {k}");
        assert_same(&decode_one(&bytes).unwrap(), &grads, "sparse table");
    }
}

/// Asserts the decoder refuses `bytes` with a serialisation error.
fn assert_rejects(bytes: &[u8], count: usize, cap: usize, what: &str) {
    match ParamGrads::decode_all(bytes, count, cap) {
        Err(Error::Serde(_)) => {}
        Err(e) => panic!("{what}: wrong error kind: {e}"),
        Ok(_) => panic!("{what}: accepted"),
    }
}

/// Hand-assembles an encoding from `u32` words and single tag bytes.
enum Piece {
    Word(u32),
    Tag(u8),
    Value(f32),
}

fn assemble(pieces: &[Piece]) -> Vec<u8> {
    let mut out = Vec::new();
    for p in pieces {
        match p {
            Piece::Word(n) => out.extend_from_slice(&n.to_le_bytes()),
            Piece::Tag(t) => out.push(*t),
            Piece::Value(x) => out.extend_from_slice(&x.to_bits().to_le_bytes()),
        }
    }
    out
}

#[test]
fn every_strict_prefix_is_rejected() {
    let mut rng = Rng::new(11);
    let shapes = [(6, 3), (1, 1), (2, 5), (4, 4)];
    for present in [[true, true, false, true], [false, false, false, false]] {
        let grads = grads_of(&shapes, &present, |r, c| {
            let mut a = random_array(r, c, &mut rng);
            a.row_mut(0).fill(1.0);
            a
        });
        let bytes = encode(&grads);
        decode_one(&bytes).unwrap();
        for cut in 0..bytes.len() {
            assert_rejects(&bytes[..cut], 1, CAP, &format!("prefix {cut}"));
        }
    }
}

#[test]
fn malformed_encodings_are_rejected() {
    use Piece::{Tag, Value, Word};
    // A valid one-slot sparse encoding to mutate: 4×1, rows 1 and 3 kept.
    let sparse = |i: u32, j: u32| {
        assemble(&[
            Word(1),
            Tag(2),
            Word(4),
            Word(1),
            Word(2),
            Word(i),
            Value(1.0),
            Word(j),
            Value(2.0),
        ])
    };
    let ok = decode_one(&sparse(1, 3)).unwrap();
    assert_eq!(
        bits(ok.get_at(0).unwrap()),
        bits(&Array::from_vec(4, 1, vec![0.0, 1.0, 0.0, 2.0]))
    );
    assert_rejects(&sparse(1, 1), 1, CAP, "repeated row index");
    assert_rejects(&sparse(3, 1), 1, CAP, "decreasing row index");
    assert_rejects(&sparse(1, 4), 1, CAP, "row index out of range");
    assert_rejects(&sparse(1, u32::MAX), 1, CAP, "row index far out of range");

    let mut unknown = sparse(1, 3);
    unknown[4] = 3;
    assert_rejects(&unknown, 1, CAP, "unknown tag");
    let mut trailing = sparse(1, 3);
    trailing.push(0);
    assert_rejects(&trailing, 1, CAP, "trailing byte");

    // More kept rows than the array has.
    let too_many = assemble(&[Word(1), Tag(2), Word(1), Word(1), Word(2), Word(0)]);
    assert_rejects(&too_many, 1, CAP, "kept rows above the row count");
    // A slot count no body could hold.
    assert_rejects(&assemble(&[Word(u32::MAX)]), 1, CAP, "huge slot count");
    // More sets than the bytes could hold.
    assert_rejects(&assemble(&[Word(0)]), usize::MAX, CAP, "huge set count");
}

#[test]
fn over_cap_shapes_are_rejected_before_allocating() {
    use Piece::{Tag, Word};
    // Declared shapes far beyond any frame, with no data behind them: the
    // cap must refuse them before a buffer of that size is requested.
    for tag in [1u8, 2] {
        let huge = assemble(&[Word(1), Tag(tag), Word(u32::MAX), Word(u32::MAX), Word(0)]);
        assert_rejects(&huge, 1, CAP, "u32::MAX × u32::MAX");
        let just_over = assemble(&[
            Word(1),
            Tag(tag),
            Word(1 << 13),
            Word((1 << 13) + 1),
            Word(0),
        ]);
        assert_rejects(&just_over, 1, CAP, "one row above the cap");
    }
    // The cap covers the sum over slots and sets, not each slot alone.
    let grads = grads_of(&[(4, 4), (4, 4)], &[true, true], |r, c| {
        Array::full(r, c, 1.0)
    });
    let bytes = encode(&grads);
    ParamGrads::decode_all(&bytes, 1, 32).unwrap();
    assert_rejects(&bytes, 1, 31, "two 16-element slots under a 31 cap");
    let mut two = bytes.clone();
    two.extend_from_slice(&bytes);
    ParamGrads::decode_all(&two, 2, 64).unwrap();
    assert_rejects(&two, 2, 63, "two sets under a 63 cap");
}

#[test]
fn random_bytes_and_mutations_never_panic() {
    let mut rng = Rng::new(99);
    let shapes = [(5, 2), (1, 1), (3, 3)];
    let grads = grads_of(&shapes, &[true, false, true], |r, c| {
        random_array(r, c, &mut rng)
    });
    let valid = encode(&grads);
    for _ in 0..2000 {
        let bytes: Vec<u8> = if rng.chance(0.5) {
            let len = rng.below(64);
            (0..len).map(|_| rng.below(256) as u8).collect()
        } else {
            let mut b = valid.clone();
            let at = rng.below(b.len());
            b[at] = rng.below(256) as u8;
            b
        };
        match ParamGrads::decode_all(&bytes, 1, 1 << 12) {
            Ok(_) | Err(Error::Serde(_)) => {}
            Err(e) => panic!("wrong error kind: {e}"),
        }
    }
}
