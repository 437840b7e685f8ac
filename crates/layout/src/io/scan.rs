//! One pass over board text: line numbers and whitespace-separated tokens.
//!
//! [`Scanner`] yields, line by line, exactly the tokens that
//! `text.lines()` then `line.split_whitespace()` would: lines end at `\n`,
//! and tokens are separated by any `char::is_whitespace` character (a
//! `\r` before the `\n` is one). ASCII bytes are classified directly;
//! a non-ASCII byte starts a `char` that is decoded and tested.

/// `char::is_whitespace` on ASCII: space, `\t`, `\n`, `\x0B`, `\x0C`,
/// `\r`. (`u8::is_ascii_whitespace` leaves out `\x0B`.)
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t'..=b'\r')
}

/// A cursor over the lines and tokens of one text.
pub(super) struct Scanner<'a> {
    text: &'a str,
    /// Byte offset of the next unread byte (always a `char` boundary).
    pos: usize,
    /// Number of the current line, 1-based; 0 before the first.
    line: usize,
}

impl<'a> Scanner<'a> {
    pub(super) fn new(text: &'a str) -> Self {
        Scanner {
            text,
            pos: 0,
            line: 0,
        }
    }

    /// Moves to the start of the next line, skipping whatever is left of
    /// the current one, and returns its 1-based number. `None` once the
    /// text is exhausted; like `str::lines`, a final `\n` opens no line.
    pub(super) fn next_line(&mut self) -> Option<usize> {
        if self.line > 0 {
            let rest = &self.text.as_bytes()[self.pos..];
            self.pos = match rest.iter().position(|&b| b == b'\n') {
                Some(i) => self.pos + i + 1,
                None => self.text.len(),
            };
        }
        if self.pos == self.text.len() {
            return None;
        }
        self.line += 1;
        Some(self.line)
    }

    /// The next token on the current line, or `None` at its end.
    pub(super) fn token(&mut self) -> Option<&'a str> {
        let bytes = self.text.as_bytes();
        let mut i = self.pos;
        loop {
            match bytes.get(i) {
                None | Some(b'\n') => {
                    self.pos = i;
                    return None;
                }
                Some(&b) if b < 0x80 => {
                    if !is_space(b) {
                        break;
                    }
                    i += 1;
                }
                Some(_) => match self.wide_char(i) {
                    (len, true) => i += len,
                    (_, false) => break,
                },
            }
        }
        let start = i;
        loop {
            // Eight bytes at a time while none is below 0x21 or above 0x7f,
            // the only bytes that can end a token. The lowest flagged byte
            // is exact: a borrow only runs upward from a flagged byte.
            while let Some(word) = bytes[i..].first_chunk::<8>() {
                let x = u64::from_le_bytes(*word);
                let stop = (x.wrapping_sub(0x2121_2121_2121_2121) & !x | x) & 0x8080_8080_8080_8080;
                if stop != 0 {
                    i += (stop.trailing_zeros() / 8) as usize;
                    break;
                }
                i += 8;
            }
            match bytes.get(i) {
                None => break,
                Some(&b) if b < 0x80 => {
                    if is_space(b) {
                        break;
                    }
                    i += 1;
                }
                Some(_) => match self.wide_char(i) {
                    (_, true) => break,
                    (len, false) => i += len,
                },
            }
        }
        self.pos = i;
        Some(&self.text[start..i])
    }

    /// Byte length of the non-ASCII `char` starting at `i`, and whether it
    /// is whitespace.
    fn wide_char(&self, i: usize) -> (usize, bool) {
        self.text[i..]
            .chars()
            .next()
            .map_or((1, false), |c| (c.len_utf8(), c.is_whitespace()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn scanned(text: &str) -> Vec<Vec<&str>> {
        let mut sc = Scanner::new(text);
        let mut lines = Vec::new();
        while let Some(n) = sc.next_line() {
            assert_eq!(n, lines.len() + 1);
            let mut toks = Vec::new();
            while let Some(t) = sc.token() {
                toks.push(t);
            }
            lines.push(toks);
        }
        lines
    }

    #[track_caller]
    fn same(text: &str) {
        let want: Vec<Vec<&str>> = text
            .lines()
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert_eq!(scanned(text), want, "{text:?}");
    }

    #[test]
    fn line_ends_and_blank_lines() {
        for text in [
            "",
            "\n",
            "\n\n",
            "a",
            "a\n",
            "a\nb",
            "a\r\nb\r\n",
            "a\r",
            "\r\n\r\n",
            "a\rb\n",
            "  a  b  \n\n\tc\t",
            "\u{b}a\u{b}b\u{b}\n",
            "\u{c}\u{85}x\u{a0}y\u{3000}\n",
            "é ü\u{2028}z\n",
        ] {
            same(text);
        }
    }

    #[test]
    fn unread_tokens_are_skipped_with_their_line() {
        let mut sc = Scanner::new("a b c\nd\n");
        assert_eq!(sc.next_line(), Some(1));
        assert_eq!(sc.token(), Some("a"));
        assert_eq!(sc.next_line(), Some(2));
        assert_eq!(sc.token(), Some("d"));
        assert_eq!(sc.token(), None);
        assert_eq!(sc.token(), None);
        assert_eq!(sc.next_line(), None);
    }

    /// Seeded texts over an alphabet weighted toward separators, with
    /// the whitespace `char::is_whitespace` and `u8::is_ascii_whitespace`
    /// disagree on (U+000B), Unicode spaces, non-space non-ASCII, and the
    /// bytes the eight-at-a-time loop stops at without ending a token
    /// (control characters, DEL) or runs past (`!`, long digit runs).
    #[test]
    fn seeded_texts_match_lines_and_split_whitespace() {
        const PIECES: [&str; 24] = [
            " ",
            "\t",
            "\n",
            "\r\n",
            "\r",
            "\u{b}",
            "\u{c}",
            "\u{85}",
            "\u{a0}",
            "\u{3000}",
            "\u{2029}",
            "#",
            "# note\n",
            "12.5",
            "-0.25e3",
            "via",
            "é",
            "\u{200b}",
            "\u{1}",
            "\u{1f}",
            "\u{7f}",
            "!",
            "1533.865721432609",
            "ab\u{3000}cdefghijk",
        ];
        let mut rng = StdRng::seed_from_u64(0x5ca1);
        for _ in 0..2000 {
            let len = rng.gen_range(0..40usize);
            let text: String = (0..len)
                .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
                .collect();
            same(&text);
        }
    }
}
