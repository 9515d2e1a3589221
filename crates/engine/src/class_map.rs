//! Mapping between [`StateClass`] and the `u8` class codes persisted in
//! WAL records and carried by termination-protocol messages.

use nbc_core::StateClass;
use nbc_storage::recovery::class_codes;

/// Encode a state class as the storage/wire code.
pub fn encode_class(class: StateClass) -> u8 {
    match class {
        StateClass::Initial => class_codes::INITIAL,
        StateClass::Wait => class_codes::WAIT,
        StateClass::Prepared => class_codes::PREPARED,
        StateClass::Aborted => class_codes::ABORTED,
        StateClass::Committed => class_codes::COMMITTED,
        StateClass::Custom(k) => class_codes::CUSTOM_BASE + k,
    }
}

/// Decode a storage/wire code back to a state class; `None` for codes
/// between the reserved range and `CUSTOM_BASE` (never produced by
/// [`encode_class`]).
pub fn try_decode_class(code: u8) -> Option<StateClass> {
    Some(match code {
        class_codes::INITIAL => StateClass::Initial,
        class_codes::WAIT => StateClass::Wait,
        class_codes::PREPARED => StateClass::Prepared,
        class_codes::ABORTED => StateClass::Aborted,
        class_codes::COMMITTED => StateClass::Committed,
        c if c >= class_codes::CUSTOM_BASE => StateClass::Custom(c - class_codes::CUSTOM_BASE),
        _ => return None,
    })
}

/// Decode a storage/wire code back to a state class.
///
/// # Panics
/// Panics on codes [`try_decode_class`] rejects.
pub fn decode_class(code: u8) -> StateClass {
    try_decode_class(code).unwrap_or_else(|| panic!("invalid class code {code}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_classes() {
        for class in [
            StateClass::Initial,
            StateClass::Wait,
            StateClass::Prepared,
            StateClass::Aborted,
            StateClass::Committed,
            StateClass::Custom(0),
            StateClass::Custom(7),
        ] {
            assert_eq!(decode_class(encode_class(class)), class);
        }
    }

    #[test]
    #[should_panic]
    fn reserved_gap_rejected() {
        let _ = decode_class(9);
    }
}
