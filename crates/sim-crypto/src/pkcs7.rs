//! PKCS#7 padding to the AES block (RFC 5652 §6.3), shared by
//! [`crate::aes`]'s CBC, the ESP data plane and the TLS record layer.
//!
//! A padded message ends in 1 to 16 bytes that each hold the pad length,
//! so even an exact multiple of the block gains one whole block.

use crate::aes::BLOCK_LEN;

/// Length of a `len`-byte message once padded: the next multiple of
/// [`BLOCK_LEN`] above `len`.
pub const fn padded_len(len: usize) -> usize {
    (len / BLOCK_LEN + 1) * BLOCK_LEN
}

/// Appends the padding for a `len`-byte message to `out`.
pub fn pad(out: &mut Vec<u8>, len: usize) {
    let pad = padded_len(len) - len;
    out.extend(std::iter::repeat_n(pad as u8, pad));
}

/// Checks the padding at the end of `padded` and returns the length of
/// the message before it, or `None` if the last byte is 0 or above 16,
/// exceeds the buffer, or any pad byte differs from it.
pub fn unpad(padded: &[u8]) -> Option<usize> {
    let &last = padded.last()?;
    let pad = usize::from(last);
    if pad == 0 || pad > BLOCK_LEN || pad > padded.len() {
        return None;
    }
    let len = padded.len() - pad;
    padded[len..].iter().all(|&b| b == last).then_some(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pad_then_unpad_round_trips() {
        for len in 0..50 {
            let mut buf = vec![0xaa; len];
            pad(&mut buf, len);
            assert_eq!(buf.len(), padded_len(len), "len={len}");
            assert_eq!(unpad(&buf), Some(len), "len={len}");
        }
    }

    #[test]
    fn unpad_rejects_every_malformed_tail() {
        assert_eq!(unpad(&[]), None, "empty");
        assert_eq!(unpad(&[7; 16][..6]), None, "pad longer than the buffer");
        let mut block = [5u8; 16];
        block[15] = 0;
        assert_eq!(unpad(&block), None, "pad byte 0");
        block[15] = 17;
        assert_eq!(unpad(&block), None, "pad byte 17");
        block[15] = 6;
        assert_eq!(unpad(&block), None, "mismatched run");
        assert_eq!(unpad(&[16; 16]), Some(0), "a whole pad block");
    }
}
