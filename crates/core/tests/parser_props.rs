//! Property tests for the spec parser, driven by seeded random sweeps:
//! total on arbitrary input (errors, never panics), and positioned on
//! every cut and line mutation of the five catalog texts.

use nbc_core::spec::parse;
use nbc_simnet::SimRng;

/// The catalog texts, as the constructors read them.
const CATALOG: [&str; 5] = [
    include_str!("../src/protocols/one_pc.nbc"),
    include_str!("../src/protocols/central_2pc.nbc"),
    include_str!("../src/protocols/central_3pc.nbc"),
    include_str!("../src/protocols/decentralized_2pc.nbc"),
    include_str!("../src/protocols/decentralized_3pc.nbc"),
];

/// What a mutation splices in beside random letters: the grammar's
/// keywords and separators, `label` among them.
const ALPHABET: [&str; 9] = ["label", "protocol", "state", "->", ":", ";", "recv", "send", "all"];

/// The parser must be total: any byte soup yields Ok or a positioned
/// error — never a panic.
#[test]
fn parser_never_panics() {
    let mut rng = SimRng::seed_from_u64(0x5bec);
    for _ in 0..256 {
        let len = rng.gen_range(0usize..400);
        let text: String = (0..len)
            .map(|_| {
                // Mostly printable ASCII with some newlines and a sprinkle
                // of arbitrary unicode.
                match rng.gen_range(0u32..10) {
                    0 => '\n',
                    1 => char::from_u32(rng.gen_range(0x20u32..0x2FFF)).unwrap_or('\u{FFFD}'),
                    _ => rng.gen_range(0x20u32..0x7F) as u8 as char,
                }
            })
            .collect();
        let n = rng.gen_range(2usize..6);
        let _ = parse(&text, n);
    }
}

/// The same for soup made of the catalog's own words, which reaches
/// deeper into the grammar than random bytes do.
#[test]
fn catalog_word_soup_never_panics() {
    let words: Vec<&str> = CATALOG.iter().flat_map(|t| t.split_whitespace()).collect();
    let mut rng = SimRng::seed_from_u64(0x5bee);
    for _ in 0..512 {
        let len = rng.gen_range(0usize..80);
        let text: String = (0..len)
            .map(|_| {
                let w = words[rng.gen_range(0..words.len())];
                if rng.gen_range(0u32..8) == 0 {
                    format!("{w}\n")
                } else {
                    format!("{w} ")
                }
            })
            .collect();
        let _ = parse(&text, rng.gen_range(2usize..6));
    }
}

/// Mutating random lines of a catalog text either still parses or fails
/// with a line number inside the document.
#[test]
fn mutated_spec_errors_are_positioned() {
    let mut rng = SimRng::seed_from_u64(0x5bed);
    for text in CATALOG {
        for _ in 0..256 {
            let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
            let i = rng.gen_range(0..lines.len());
            let junk_len = rng.gen_range(1usize..=12);
            let junk: String = (0..junk_len)
                .map(|_| match rng.gen_range(0u32..4) {
                    0 => format!(" {} ", ALPHABET[rng.gen_range(0..ALPHABET.len())]),
                    _ => (rng.gen_range(b'a' as u32..=b'z' as u32) as u8 as char).to_string(),
                })
                .collect();
            // The junk replaces the line or is a clause appended to it.
            if rng.gen_range(0u32..2) == 0 {
                lines[i] = junk;
            } else {
                lines[i] = format!("{} ;{junk}", lines[i]);
            }
            let text = lines.join("\n");
            match parse(&text, 3) {
                Ok(_) => {}
                Err(e) => {
                    assert!(e.line <= lines.len(), "line {} of {}", e.line, lines.len())
                }
            }
        }
    }
}

#[test]
fn truncated_specs_fail_gracefully() {
    // Every prefix of a valid spec parses or errors cleanly.
    for full in CATALOG {
        for cut in 0..full.len() {
            if !full.is_char_boundary(cut) {
                continue;
            }
            let _ = parse(&full[..cut], 3);
        }
    }
}
