//! Minimal XML parser and writer.
//!
//! The CCM deployment model describes software packages and assemblies with
//! XML vocabularies (OSD — Open Software Description — and the CAD assembly
//! descriptor). GridCCM additionally consumes an XML description of a
//! component's parallelism (Figure 5 of the paper). No XML crate is on the
//! allowed dependency list, so this module implements the small, strict
//! subset those descriptors need:
//!
//! * elements with attributes, nested elements and text content
//! * XML declaration (`<?xml ...?>`), comments, CDATA
//! * the five predefined entities (`&lt; &gt; &amp; &apos; &quot;`)
//!
//! It deliberately does **not** implement namespaces, DTDs, or processing
//! instructions beyond skipping them.

use std::fmt;

/// An XML element tree node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element {
    pub name: String,
    pub attributes: Vec<(String, String)>,
    pub children: Vec<Element>,
    /// Concatenated text content directly under this element (trimmed).
    pub text: String,
}

impl Element {
    /// New empty element.
    pub fn new(name: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            attributes: Vec::new(),
            children: Vec::new(),
            text: String::new(),
        }
    }

    /// Builder-style attribute setter.
    pub fn attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.push((key.into(), value.into()));
        self
    }

    /// Builder-style child append.
    pub fn child(mut self, child: Element) -> Self {
        self.children.push(child);
        self
    }

    /// Builder-style text setter.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.text = text.into();
        self
    }

    /// Value of an attribute.
    pub fn get_attr(&self, key: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// First child element with the given name.
    pub fn find(&self, name: &str) -> Option<&Element> {
        self.children.iter().find(|c| c.name == name)
    }

    /// All child elements with the given name.
    pub fn find_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.children.iter().filter(move |c| c.name == name)
    }

    /// Text of the first child with the given name, if any.
    pub fn child_text(&self, name: &str) -> Option<&str> {
        self.find(name).map(|e| e.text.as_str())
    }

    /// Serialize to a compact XML string (with declaration).
    pub fn to_xml(&self) -> String {
        let mut out = String::from("<?xml version=\"1.0\"?>");
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut String) {
        out.push('<');
        out.push_str(&self.name);
        for (k, v) in &self.attributes {
            out.push(' ');
            out.push_str(k);
            out.push_str("=\"");
            escape_into(v, out);
            out.push('"');
        }
        if self.children.is_empty() && self.text.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        escape_into(&self.text, out);
        for c in &self.children {
            c.write_into(out);
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push('>');
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_xml())
    }
}

fn escape_into(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
}

/// Parse error with byte offset for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "XML parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete XML document and return its root element.
pub fn parse(input: &str) -> Result<Element, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_prolog()?;
    let root = p.parse_element()?;
    p.skip_misc();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after root element"));
    }
    Ok(root)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_until(&mut self, pat: &str) -> Result<(), ParseError> {
        match find_from(self.bytes, self.pos, pat.as_bytes()) {
            Some(idx) => {
                self.pos = idx + pat.len();
                Ok(())
            }
            None => Err(self.err(&format!("unterminated construct, expected `{pat}`"))),
        }
    }

    /// Skip declaration, comments and whitespace before the root element.
    fn skip_prolog(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.skip_until("?>")?;
            } else if self.starts_with("<!--") {
                self.skip_until("-->")?;
            } else if self.starts_with("<!") {
                // DOCTYPE and friends: skip to the closing '>'.
                self.skip_until(">")?;
            } else {
                return Ok(());
            }
        }
    }

    /// Skip comments/whitespace after the root element.
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                if self.skip_until("-->").is_err() {
                    return;
                }
            } else {
                return;
            }
        }
    }

    fn parse_name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned())
    }

    fn parse_element(&mut self) -> Result<Element, ParseError> {
        if self.peek() != Some(b'<') {
            return Err(self.err("expected `<`"));
        }
        self.pos += 1;
        let name = self.parse_name()?;
        let mut el = Element::new(name);

        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() != Some(b'>') {
                        return Err(self.err("expected `>` after `/`"));
                    }
                    self.pos += 1;
                    return Ok(el); // self-closing
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let key = self.parse_name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(self.err("expected `=` in attribute"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let quote = self.peek();
                    if !matches!(quote, Some(b'"') | Some(b'\'')) {
                        return Err(self.err("expected quoted attribute value"));
                    }
                    let q = quote.unwrap();
                    self.pos += 1;
                    let vstart = self.pos;
                    while let Some(c) = self.peek() {
                        if c == q {
                            break;
                        }
                        self.pos += 1;
                    }
                    if self.peek() != Some(q) {
                        return Err(self.err("unterminated attribute value"));
                    }
                    let raw = String::from_utf8_lossy(&self.bytes[vstart..self.pos]).into_owned();
                    self.pos += 1;
                    el.attributes.push((key, unescape(&raw)));
                }
                None => return Err(self.err("unexpected end of input in tag")),
            }
        }

        // Content: text, children, comments, CDATA, closing tag.
        let mut text = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unexpected end of input in element content")),
                Some(b'<') => {
                    if self.starts_with("</") {
                        self.pos += 2;
                        let close = self.parse_name()?;
                        if close != el.name {
                            return Err(self.err(&format!(
                                "mismatched closing tag: expected `</{}>`, found `</{}>`",
                                el.name, close
                            )));
                        }
                        self.skip_ws();
                        if self.peek() != Some(b'>') {
                            return Err(self.err("expected `>` in closing tag"));
                        }
                        self.pos += 1;
                        el.text = unescape(text.trim());
                        return Ok(el);
                    } else if self.starts_with("<!--") {
                        self.skip_until("-->")?;
                    } else if self.starts_with("<![CDATA[") {
                        self.pos += "<![CDATA[".len();
                        let start = self.pos;
                        match find_from(self.bytes, self.pos, b"]]>") {
                            Some(idx) => {
                                text.push_str(&String::from_utf8_lossy(&self.bytes[start..idx]));
                                self.pos = idx + 3;
                            }
                            None => return Err(self.err("unterminated CDATA")),
                        }
                    } else if self.starts_with("<?") {
                        self.skip_until("?>")?;
                    } else {
                        el.children.push(self.parse_element()?);
                    }
                }
                Some(_) => {
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == b'<' {
                            break;
                        }
                        self.pos += 1;
                    }
                    text.push_str(&String::from_utf8_lossy(&self.bytes[start..self.pos]));
                }
            }
        }
    }
}

fn find_from(haystack: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || from >= haystack.len() {
        return None;
    }
    haystack[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|i| i + from)
}

fn unescape(s: &str) -> String {
    if !s.contains('&') {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(idx) = rest.find('&') {
        out.push_str(&rest[..idx]);
        rest = &rest[idx..];
        let known = [
            ("&lt;", '<'),
            ("&gt;", '>'),
            ("&amp;", '&'),
            ("&quot;", '"'),
            ("&apos;", '\''),
        ];
        let mut matched = false;
        for (ent, ch) in known {
            if rest.starts_with(ent) {
                out.push(ch);
                rest = &rest[ent.len()..];
                matched = true;
                break;
            }
        }
        if !matched {
            // Unknown entity: keep the ampersand literally.
            out.push('&');
            rest = &rest[1..];
        }
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_element() {
        let e = parse("<a/>").unwrap();
        assert_eq!(e.name, "a");
        assert!(e.children.is_empty());
        assert!(e.text.is_empty());
    }

    #[test]
    fn parse_attributes_and_text() {
        let e = parse(r#"<port name="density" kind='facet'>matrix</port>"#).unwrap();
        assert_eq!(e.get_attr("name"), Some("density"));
        assert_eq!(e.get_attr("kind"), Some("facet"));
        assert_eq!(e.text, "matrix");
    }

    #[test]
    fn parse_nested_with_prolog_and_comments() {
        let doc = r#"<?xml version="1.0" encoding="UTF-8"?>
            <!-- assembly for the coupling example -->
            <assembly id="coupling">
                <component name="chemistry"><nodes>0 1</nodes></component>
                <component name="transport"/>
            </assembly>"#;
        let e = parse(doc).unwrap();
        assert_eq!(e.name, "assembly");
        assert_eq!(e.get_attr("id"), Some("coupling"));
        assert_eq!(e.children.len(), 2);
        assert_eq!(e.child_text("component"), Some(""));
        assert_eq!(
            e.find("component").unwrap().child_text("nodes"),
            Some("0 1")
        );
        assert_eq!(e.find_all("component").count(), 2);
    }

    #[test]
    fn parse_entities_and_cdata() {
        let e = parse("<t a=\"x&amp;y\">&lt;hello&gt; <![CDATA[<raw & stuff>]]></t>").unwrap();
        assert_eq!(e.get_attr("a"), Some("x&y"));
        assert!(e.text.contains("<hello>"));
        assert!(e.text.contains("<raw & stuff>"));
    }

    #[test]
    fn mismatched_tags_rejected() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(err.message.contains("mismatched"), "{err}");
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("<a/><b/>").is_err());
        assert!(parse("<a/>junk").is_err());
    }

    #[test]
    fn unterminated_rejected() {
        assert!(parse("<a>").is_err());
        assert!(parse("<a attr=\"x>").is_err());
        assert!(parse("<!-- never closed").is_err());
    }

    #[test]
    fn roundtrip_builder_to_xml_to_tree() {
        let built = Element::new("parallel")
            .attr("interface", "IExample")
            .child(
                Element::new("argument")
                    .attr("index", "1")
                    .attr("distribution", "block"),
            )
            .child(Element::new("note").with_text("a < b & c"));
        let text = built.to_xml();
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, built);
    }

    #[test]
    fn unknown_entity_kept_literal() {
        let e = parse("<a>&unknown; ok</a>").unwrap();
        assert_eq!(e.text, "&unknown; ok");
    }
}
